"""Bracketed scalar root finding by Brent's method.

brent follows R. P. Brent, *Algorithms for Minimization without Derivatives*
(Prentice-Hall, 1973), ch. 4, in the form that scipy.optimize.brentq runs:
inverse quadratic extrapolation or secant interpolation when the step is
short enough, bisection otherwise, and a step of at least
delta = (xtol + rtol |x|) / 2.  The iteration is transcribed line for line
from that routine, so every float operation is the same: for the same
f, bracket and (xtol, rtol, maxiter) it returns the same root, bit for bit,
after the same number of calls to f.  This module keeps scipy.optimize, and
the scipy.linalg and scipy.sparse it loads, off the package's import path.

Failures are typed: a bracket without a sign change raises RootNotBracketed,
an exhausted iteration cap raises NoConvergence, and a NaN from f raises
NanValue, where brentq would raise ValueError or RuntimeError.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NanValue, NoConvergence, RootNotBracketed


def _value(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NanValue(f"the function value at x={x!r} is NaN; the root search cannot continue")
    return fx


def brent(
    f: Callable[[float], float], a: float, b: float, *, xtol: float, rtol: float, maxiter: int
) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    The root is within 2 delta = xtol + rtol |x| of a sign change of f.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootNotBracketed(
            f"f({xpre!r}) = {fpre!r} and f({xcur!r}) = {fcur!r} have the same sign"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # a divisor underflowed to 0; C gives inf or NaN, and both bisect
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = sbis
                scur = sbis
        else:
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise NoConvergence(f"no convergence after {maxiter} iterations; last x = {xcur!r}")
