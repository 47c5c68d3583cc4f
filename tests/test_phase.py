import json
import math
from pathlib import Path

import numpy as np
import pytest

from fprw import cli, phase
from fprw.classify import INHERITED, THREE_HALVES, classify_two
from fprw.errors import ConfigError, DegenerateProduct, TargetOutOfRange
from fprw.factors import LatticeNN, analyze_factor, cyclic_group, flip_group, psi_at
from fprw.product import FreeProductSpec, analyze_product, factor_analytics


def pair(f1, f2, a=0.5):
    return FreeProductSpec((f1, f2), (a, 1.0 - a))


Z2, Z3, Z4, Z5, Z6, Z7 = (LatticeNN.simple(d) for d in (2, 3, 4, 5, 6, 7))


@pytest.fixture(scope="module")
def z56():
    return pair(Z5, Z6)


class TestUpsilon:
    def test_composite_value_at_critical_weight(self, z56):
        an1, an2 = factor_analytics(z56)
        ac = an1.theta / (an1.theta + an2.theta)
        val = phase.upsilon(z56, ac)
        assert val == pytest.approx(0.691 + 0.824 - 1.0, abs=0.004)

    def test_limit_small_alpha(self, z56):
        an2 = factor_analytics(z56)[1]
        assert phase.upsilon(z56, 1e-6) == pytest.approx(an2.psi_at_radius, abs=1e-4)
        assert phase.upsilon(z56, 1e-6) == pytest.approx(0.824, abs=0.003)

    def test_piecewise_monotone(self):
        s = pair(Z2, Z7)
        grid = np.linspace(0.05, 0.95, 13)
        vals = [phase.upsilon(s, a) for a in grid]
        # theta_1 = inf: alpha_c = 1, decreasing throughout (exponentially
        # flat near 1, so monotonicity is asserted up to tolerance)
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    def test_v_shape_around_critical(self, z56):
        an1, an2 = factor_analytics(z56)
        ac = an1.theta / (an1.theta + an2.theta)
        left = np.linspace(0.05, ac, 7)
        right = np.linspace(ac, 0.95, 7)
        lv = [phase.upsilon(z56, a) for a in left]
        rv = [phase.upsilon(z56, a) for a in right]
        assert all(a > b - 1e-9 for a, b in zip(lv, lv[1:]))
        assert all(a < b + 1e-9 for a, b in zip(rv, rv[1:]))


class TestCriticalWeight:
    def test_finite(self):
        assert phase.critical_weight(1.0, 3.0) == pytest.approx(0.25)

    def test_infinity_rules(self):
        assert phase.critical_weight(math.inf, 2.0) == 1.0
        assert phase.critical_weight(2.0, math.inf) == 0.0
        assert phase.critical_weight(math.inf, math.inf) is None


class TestRootsAndCases:
    def test_case_d_no_roots(self, z56):
        assert phase.phase_roots(z56) == (None, None)
        assert phase.regime_case(z56) == "D"

    def test_case_e_no_roots(self):
        s = pair(Z3, Z4)
        assert phase.phase_roots(s) == (None, None)
        assert phase.regime_case(s) == "E"

    def test_case_b_single_root(self):
        s = pair(Z2, Z7)
        low, high = phase.phase_roots(s)
        assert high is None and low is not None
        assert 0.0 < low < 1.0
        assert abs(phase.upsilon(s, low)) < 1e-7
        assert phase.regime_case(s) == "B"

    def test_case_c_mirror(self):
        s = pair(Z7, Z2)
        low, high = phase.phase_roots(s)
        assert low is None and high is not None
        assert phase.regime_case(s) == "C"
        mirror = phase.phase_roots(pair(Z2, Z7))[0]
        assert high == pytest.approx(1.0 - mirror, abs=1e-8)

    def test_case_e_constant_for_recurrent_pair(self):
        s = pair(flip_group(), cyclic_group(3, (0.0, 0.5, 0.5)))
        assert phase.regime_case(s) == "E"
        assert phase.phase_roots(s) == (None, None)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateProduct):
            phase.regime_case(pair(flip_group(), flip_group()))

    def test_case_a_tuned(self):
        f1 = phase.tune_axis_weights(5, 0.45)
        f2 = phase.tune_axis_weights(6, 0.45)
        s = pair(f1, f2)
        assert phase.regime_case(s) == "A"
        low, high = phase.phase_roots(s)
        assert low is not None and high is not None
        an1, an2 = factor_analytics(s)
        ac = an1.theta / (an1.theta + an2.theta)
        assert low <= ac <= high


class TestSweep:
    def test_grid_structure(self, z56):
        diag = phase.sweep(z56, grid_size=21)
        assert len(diag.grid) == 21
        assert diag.case == "D"
        alphas = [p.alpha1 for p in diag.grid]
        assert all(0 < a < 1 for a in alphas)
        assert alphas == sorted(alphas)

    def test_law_switches_at_critical_weight(self, z56):
        diag = phase.sweep(z56, grid_size=33)
        for p in diag.grid:
            expect = 0 if p.alpha1 >= diag.alpha_c else 1
            assert p.kind == INHERITED and p.factor_index == expect

    def test_matches_classify_two(self, z56):
        diag = phase.sweep(z56, grid_size=9)
        for p in [diag.grid[1], diag.grid[4], diag.grid[7]]:
            law = classify_two(pair(Z5, Z6, p.alpha1))
            assert law.kind == p.kind
            assert law.lam == pytest.approx(p.lam)

    def test_case_a_interval_pattern(self):
        f1 = phase.tune_axis_weights(5, 0.45)
        f2 = phase.tune_axis_weights(6, 0.45)
        s = pair(f1, f2)
        diag = phase.sweep(s, grid_size=41)
        low, high = diag.alpha_low, diag.alpha_high
        for p in diag.grid:
            if p.alpha1 < low - 1e-6:
                assert (p.kind, p.factor_index) == (INHERITED, 1)
            elif low + 1e-6 < p.alpha1 < high - 1e-6:
                assert p.kind == THREE_HALVES
            elif p.alpha1 > high + 1e-6:
                assert (p.kind, p.factor_index) == (INHERITED, 0)

    def test_law_agrees_with_analyze_just_above_zero(self):
        # Upsilon = Psi(theta-bar) = 5e-9 at alpha_c: above the regime labels'
        # sign tolerance, below classify's critical tolerance
        f5 = phase.tune_axis_weights(5, 0.5)
        f6 = phase.tune_axis_weights(6, 0.5 + 5e-9)
        an1, an2 = factor_analytics(pair(f5, f6))
        ac = an1.theta / (an1.theta + an2.theta)
        p = phase._law_at(an1, an2, ac)
        assert p.upsilon == pytest.approx(5e-9, rel=1e-3)
        law = classify_two(pair(f5, f6, ac))
        got = (p.kind, p.factor_index, p.lam, p.kappa)
        assert got == (law.kind, law.factor_index, law.lam, law.kappa)
        assert p.kind == THREE_HALVES

    def test_sign_determines_branch_outside_warning_band(self, z56):
        diag = phase.sweep(z56, grid_size=17)
        for p in diag.grid:
            if p.near_critical:
                continue
            if p.upsilon > 0:
                assert p.kind == INHERITED
            else:
                assert p.kind == THREE_HALVES

    def test_small_grid_rejected(self, z56):
        with pytest.raises(ConfigError):
            phase.sweep(z56, grid_size=2)


GOLDEN_CONFIGS = json.loads((Path(__file__).parent / "golden" / "configs.json").read_text())
# the two-factor golden products; C2xC2 is recurrent and has no phase diagram
GOLDEN_PAIRS = [n for n, c in GOLDEN_CONFIGS.items() if len(c["factors"]) == 2 and n != "C2xC2"]


@pytest.mark.parametrize("name", GOLDEN_PAIRS)
def test_upsilon_is_psi_bar_of_analyze(name):
    # the golden `phase --grid 64` points against `analyze` at the same weights
    config = GOLDEN_CONFIGS[name]
    factors = tuple(cli.parse_factor(f, i) for i, f in enumerate(config["factors"]))
    for p in phase.sweep(FreeProductSpec(factors, config["weights"]), grid_size=64).grid:
        pa = analyze_product(FreeProductSpec(factors, (p.alpha1, 1.0 - p.alpha1)))
        assert p.upsilon == pa.psi_bar


class TestTuneAxisWeights:
    def test_uniform_recovers_cartwright(self):
        spec = phase.tune_axis_weights(5, 0.691)
        # delta = 1 - 1/d reproduces the uniform measure
        assert spec.beta[0] == pytest.approx(0.2, abs=5e-3)

    def test_target_half(self):
        spec = phase.tune_axis_weights(5, 0.5)
        an = analyze_factor(spec)
        assert psi_at(an, an.radius) == pytest.approx(0.5, abs=1e-4)

    def test_continuity_on_grid(self):
        vals = [phase._psi_at_theta(5, d) for d in np.linspace(0.05, 0.8, 10)]
        assert all(abs(a - b) < 0.2 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.5 < vals[-1]

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            phase.tune_axis_weights(5, 0.95)
        with pytest.raises(ConfigError):
            phase.tune_axis_weights(4, 0.5)
