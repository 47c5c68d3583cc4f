"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (also available via `fprw selftest`)."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, rgamma

from fprw import mc, selftest
from fprw.factors import SingularityDescriptor


@pytest.mark.parametrize("criterion", selftest.CRITERIA, ids=lambda f: f"criterion_{f.index}")
def test_criterion(criterion):
    result = criterion()
    print(selftest.format_line(result))
    assert result.passed, selftest.format_line(result)


def test_criterion_8_fails_on_a_kept_identity_letter(monkeypatch):
    # a merge that never cancels leaves each cancelled letter on the stack
    # as its factor's identity code
    merge = mc._Letters.merge

    def keeps_identity(self, codes, k):
        products, _ = merge(self, codes, k)
        return products, np.zeros(products.size, dtype=bool)

    monkeypatch.setattr(mc._Letters, "merge", keeps_identity)
    result = selftest.criterion_8()
    assert not result.passed
    assert result.detail == "identity letter survived"


def period_two_series(amplitudes, order):
    """Normalized coefficients of sum_a b_a ((1 - z/radius)^a + (1 + z/radius)^a),
    a <= 2, that is the coefficients in u = z/radius.

    [u^n](1 -+ u)^a = (+-1)^n Gamma(n - a) / (Gamma(-a) Gamma(n + 1)), filled in
    for n >= 2, where Gamma(n - a) > 0; the fits never reach lower n.
    """
    n = np.arange(2, order + 1, dtype=float)
    c = np.zeros(order + 1)
    for a, b in amplitudes.items():
        mag = np.exp(gammaln(n - a) - gammaln(n + 1))
        c[2:] += b * rgamma(-a) * mag * (1.0 + (-1.0) ** n)
    return c


def test_correction_exponents_of_z7_z8():
    z7 = SingularityDescriptor.from_qk(2.5, 0)
    z8 = SingularityDescriptor.from_qk(3.0, 1)
    assert selftest.correction_exponents([z7, z8]) == (0.25, 0.5, 0.75, 1.0)
    assert selftest.correction_exponents([z8]) == (0.5, 1.0)


def test_correction_exponents_need_finite_phi_second():
    with pytest.raises(ValueError):
        selftest.correction_exponents([SingularityDescriptor.from_qk(1.5, 0)])
    with pytest.raises(ValueError):
        selftest.correction_exponents([None])


@pytest.mark.parametrize("window", selftest.SQRT_FIT_WINDOWS)
def test_sqrt_fit_recovers_synthetic_g1(window):
    # the exponents 1/2, 3/4, 1, 5/4 give relative steps n^-1/4, n^-3/4 and
    # an analytic term, the shape criterion 7 meets on the Z^7 * Z^8 product
    radius = 1.374
    amplitudes = {0.5: -3.0, 0.75: 2.0, 1.0: 1.5, 1.25: -1.0}
    coeffs = period_two_series(amplitudes, 3000)
    g1 = amplitudes[0.5] / math.sqrt(radius)
    exponents = (0.25, 0.5, 0.75, 1.0)
    g1_fit, (first, last) = selftest.fit_sqrt_coefficient(coeffs, radius, 2, exponents, window)
    assert g1_fit == pytest.approx(g1, rel=0.005)
    # normalized coefficients stay normal floats: the whole window is fitted
    assert (first, last) == window
