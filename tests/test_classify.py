import math

import numpy as np
import pytest

from fprw.classify import (
    INHERITED,
    ONE_HALF_DEGENERATE,
    THREE_HALVES,
    classify_multi,
    darboux_map,
    fit_exponent,
)
from fprw.errors import InsufficientData, InvalidSingularity
from fprw.factors import DEFAULT_ORDER, ExplicitSeries, HomTree, LatticeNN, cyclic_group, flip_group
from fprw.product import (
    FreeProductSpec,
    analyze_product,
    factor_analytics,
    product_green_series,
    product_period,
)
from fprw.series import PowerSeries

from .oracles import fold_classify

C2 = flip_group()
C3 = cyclic_group(3, (0.0, 0.5, 0.5))
Z1 = LatticeNN.simple(1)
Z3 = LatticeNN.simple(3)
Z4 = LatticeNN.simple(4)
Z5 = LatticeNN.simple(5)
Z6 = LatticeNN.simple(6)
T3 = HomTree(3)
T4 = HomTree(4)
# the 3-regular tree walk as an explicit series of 256 coefficients
X3 = ExplicitSeries(
    coeffs=tuple(T3.series(256).coeffs), radius=3.0 / (2.0 * math.sqrt(2.0)),
    g_at_r=4.0, gprime_at_r=math.inf, sing=(0.5, 0), period=2,
)
# three-factor products of the benchmark's law catalog, at its seed-101
# weights; fold truncates its synthetic head factor, so these fold at 1024
BENCHMARK_TRIPLES = {
    "Z5*Z6*T3@0": ((Z5, 0.2308), (Z6, 0.2169), (T3, 0.5523)),
    "Z5*Z6*T3@1": ((Z5, 0.1419), (Z6, 0.1363), (T3, 0.7218)),
    "T4*C2*Z7": ((T4, 0.3297), (C2, 0.3368), (LatticeNN.simple(7), 0.3335)),
}


def spec_of(*pairs):
    factors, weights = zip(*pairs)
    return FreeProductSpec(factors, weights)


class TestDarbouxMap:
    def test_square_root(self):
        assert darboux_map(0.5, 0) == (1.5, 0)

    def test_half_integer(self):
        assert darboux_map(2.5, 0) == (3.5, 0)

    def test_integer_consumes_log(self):
        assert darboux_map(2.0, 1) == (3.0, 0)
        assert darboux_map(3.0, 2) == (4.0, 1)

    def test_analytic_rejected(self):
        with pytest.raises(InvalidSingularity):
            darboux_map(2.0, 0)
        with pytest.raises(InvalidSingularity):
            darboux_map(-0.5, 0)


class TestPeriod:
    def test_lattice_pair(self):
        assert product_period(spec_of((Z5, 0.5), (Z6, 0.5))) == 2

    def test_mixed_periods(self):
        assert product_period(spec_of((Z1, 0.5), (C3, 0.5))) == 1

    def test_series_support(self):
        s = spec_of((Z1, 0.5), (C3, 0.5))
        g = product_green_series(s, 50)
        delta = product_period(s)
        for n in range(1, 51):
            if g[n] > 1e-15:
                assert n % delta == 0


@pytest.fixture(scope="module")
def alpha_c_56():
    ans = factor_analytics(spec_of((Z5, 0.5), (Z6, 0.5)))
    return ans[0].theta / (ans[0].theta + ans[1].theta)


class TestClassifyTwo:
    def test_case_d_both_sides(self, alpha_c_56):
        above = classify_multi(spec_of((Z5, alpha_c_56 + 0.05), (Z6, 1 - alpha_c_56 - 0.05)))
        assert (above.kind, above.factor_index, above.lam, above.kappa) == (INHERITED, 0, 2.5, 0)
        below = classify_multi(spec_of((Z5, alpha_c_56 - 0.05), (Z6, 1 - alpha_c_56 + 0.05)))
        assert (below.kind, below.factor_index, below.lam, below.kappa) == (INHERITED, 1, 3.0, 0)

    def test_tie_takes_smaller_lambda(self, alpha_c_56):
        at = classify_multi(spec_of((Z5, alpha_c_56), (Z6, 1 - alpha_c_56)))
        assert (at.kind, at.factor_index, at.lam) == (INHERITED, 0, 2.5)

    def test_low_dimensions_always_three_halves(self):
        for a in (0.2, 0.5, 0.8):
            law = classify_multi(spec_of((Z3, a), (Z4, 1 - a)))
            assert law.kind == THREE_HALVES and law.lam == 1.5

    def test_finite_times_lattice(self):
        # Z/3Z * Z^5: theta_1 = inf so the lattice is always the argmin;
        # Psi stays positive for every weight here (Psi_1(inf) = 1/3)
        for a in (0.2, 0.6, 0.9):
            law = classify_multi(spec_of((C3, a), (Z5, 1 - a)))
            assert (law.kind, law.factor_index, law.lam) == (INHERITED, 1, 2.5)

    def test_degenerate(self):
        law = classify_multi(spec_of((C2, 0.5), (C2, 0.5)))
        assert law.kind == ONE_HALF_DEGENERATE and law.lam == 0.5
        assert law.radius == 1.0

    def test_finite_times_finite(self):
        law = classify_multi(spec_of((C2, 0.5), (C3, 0.5)))
        assert law.kind == THREE_HALVES

    def test_both_derivatives_infinite(self):
        for pair in ((Z3, T3), (T3, T3), (Z1, Z3)):
            law = classify_multi(spec_of((pair[0], 0.5), (pair[1], 0.5)))
            assert law.kind == THREE_HALVES

    def test_permutation_invariance(self, alpha_c_56):
        a = alpha_c_56 + 0.1
        fwd = classify_multi(spec_of((Z5, a), (Z6, 1 - a)))
        rev = classify_multi(spec_of((Z6, 1 - a), (Z5, a)))
        assert (fwd.lam, fwd.kappa, fwd.kind) == (rev.lam, rev.kappa, rev.kind)
        assert fwd.factor_index == 0 and rev.factor_index == 1
        assert fwd.radius == pytest.approx(rev.radius, rel=1e-10)

    def test_weight_scaling_invariance(self):
        base = classify_multi(spec_of((Z5, 0.3), (Z6, 0.7)))
        scaled = classify_multi(spec_of((Z5, 6.0), (Z6, 14.0)))
        assert (base.kind, base.factor_index, base.lam) == (
            scaled.kind,
            scaled.factor_index,
            scaled.lam,
        )

    def test_branch_totality_archetype_grid(self):
        # every finite/infinite G,G' combination lands in exactly one branch
        archetypes = (C2, C3, T3, Z1, Z3, Z5)
        kinds = set()
        for i, f1 in enumerate(archetypes):
            for f2 in archetypes[i:]:
                for a in (0.35, 0.65):
                    law = classify_multi(spec_of((f1, a), (f2, 1 - a)))
                    kinds.add(law.kind)
        assert kinds == {INHERITED, THREE_HALVES, ONE_HALF_DEGENERATE}


class TestClassifyMulti:
    def test_equal_weights_inherits_last(self):
        # theta decreases with dimension, so Z^7 attains the minimum
        Z7 = LatticeNN.simple(7)
        s = spec_of((Z5, 1.0), (Z6, 1.0), (Z7, 1.0))
        law = classify_multi(s)
        assert (law.kind, law.factor_index, law.lam, law.kappa) == (INHERITED, 2, 3.5, 0)

    def test_heavy_first_weight_inherits_first(self):
        Z7 = LatticeNN.simple(7)
        s = spec_of((Z5, 0.5), (Z6, 0.3), (Z7, 0.2))
        law = classify_multi(s)
        assert (law.kind, law.factor_index, law.lam) == (INHERITED, 0, 2.5)

    @pytest.mark.parametrize(
        "pairs",
        [
            ((LatticeNN.simple(5), 1.0), (LatticeNN.simple(6), 1.0), (LatticeNN.simple(7), 1.0)),
            ((LatticeNN.simple(5), 0.5), (LatticeNN.simple(6), 0.3), (LatticeNN.simple(7), 0.2)),
            ((C2, 1.0), (C2, 1.0), (C2, 1.0)),
            ((C2, 0.25), (C3, 0.5), (Z5, 0.25)),
            *(pytest.param(pairs, id=name) for name, pairs in BENCHMARK_TRIPLES.items()),
        ],
    )
    def test_fold_matches_direct(self, pairs):
        s = spec_of(*pairs)
        fold_order = 1024 if pairs in BENCHMARK_TRIPLES.values() else DEFAULT_ORDER
        fold = fold_classify(s, fold_order)
        direct = classify_multi(s, method="direct")
        assert (fold.kind, fold.lam, fold.kappa) == (direct.kind, direct.lam, direct.kappa)
        if fold.kind == INHERITED:
            assert fold.factor_index == direct.factor_index
        assert fold.radius == pytest.approx(direct.radius, rel=1e-6)

    def test_fold_law_matches_direct_on_explicit_tree(self):
        # the benchmark's X3*T4*Z8 at seed 101.  Here both routes give n^-3/2,
        # but fold's radius misses direct's by 3.2e-4 at order 1024 (5.8e-4 at
        # 512): the truncated synthetic head is evaluated near its radius
        s = spec_of((X3, 0.4476), (T4, 0.3658), (LatticeNN.simple(8), 0.1866))
        fold = fold_classify(s, 1024)
        direct = classify_multi(s, method="direct")
        want = (THREE_HALVES, 1.5, 0, None)
        assert (fold.kind, fold.lam, fold.kappa, fold.factor_index) == want
        assert (direct.kind, direct.lam, direct.kappa, direct.factor_index) == want

    def test_direct_is_the_only_method(self):
        with pytest.raises(ValueError, match="unknown method 'fold'"):
            classify_multi(spec_of((C2, 0.5), (C3, 0.5)), method="fold")

    def test_pi3_three_halves(self):
        law = classify_multi(spec_of((C2, 1.0), (C2, 1.0), (C2, 1.0)))
        assert law.kind == THREE_HALVES
        assert law.radius == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-9)


class TestFitExponent:
    def test_synthetic_three_halves(self):
        rho = 1.25
        n = np.arange(0, 3001)
        c = np.zeros(n.size)
        c[2::2] = rho ** (-n[2::2].astype(float)) * n[2::2] ** -1.5
        lam = fit_exponent(PowerSeries(c), rho, 2, (100, 3000))
        assert lam == pytest.approx(1.5, abs=0.01)

    def test_synthetic_with_log(self):
        rho = 1.1
        n = np.arange(2, 4001)
        c = np.zeros(4001)
        c[2:] = rho ** (-n.astype(float)) * n**-3.0 * np.log(n)
        lam = fit_exponent(PowerSeries(c), rho, 1, (200, 4000), kappa=1)
        assert lam == pytest.approx(3.0, abs=0.05)

    def test_real_product_small(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        radius = analyze_product(s).radius
        g = product_green_series(s, 600)
        lam = fit_exponent(g, radius, 1, (100, 600))
        assert lam == pytest.approx(1.5, abs=0.25)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_exponent(PowerSeries([1.0, 0.5, 0.25]), 1.0, 1, (1, 2))
