"""Per-factor walk analytics: Green values and derivatives, radius, theta,
first-visit transforms, period, and the leading singularity descriptor.

Four factor kinds are supported: nearest-neighbour lattice walks on Z^d,
group-invariant walks on a finite group, the uniform walk on the free product
of q copies of Z/2Z (whose Cayley graph is the q-regular tree), and a
user-supplied explicit return series with asserted radius metadata.

Each factor kind answers the same questions as methods: its radius,
period and singularity descriptor (`invariants`), its return series
(`series`), the same series in the variable x = z/rho (`radius_series`,
which the product's first-visit solve uses), its Green function and
derivatives (`green`), and the limit of Psi at the radius where G diverges
there (`recurrent_psi_limit`).  A finite group also gives its
first-return kernel in closed rational form (`first_return_form`), which
the product's solve evaluates by elimination at high orders.  Each fact has
one source: analyze_factor asks the factor once and caches the result per
factor.  The validity of a singular term (q, k) is `darboux_map`, which
both the explicit factor's construction and `SingularityDescriptor` read.

All evaluations are pure; a GreenAnalytics object is immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Union

import numpy as np

from . import lattice
from .errors import (
    ConfigError,
    InvalidSingularity,
    NeedsDerivative,
    OutOfDomain,
    RootNotBracketed,
)
from .roots import brent
from .series import PowerSeries, horner, serial_dot, series_reciprocal

DEFAULT_ORDER = 512

# relative tolerances: root solves, at-the-radius snapping for Psi (the
# continuous limit replaces near-divergent quadrature inside the band)
_ROOT_RTOL = 1e-13
_EDGE_RTOL = 1e-8

# Green values kept per factor evaluator, keyed on (z, deriv), and analysed
# factors kept per factor
_GREEN_CACHE_SIZE = 4096
_ANALYTICS_CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# factor descriptions


@dataclass(frozen=True)
class LatticeNN:
    """Nearest-neighbour walk on Z^d: axis weights beta_j, up-probabilities p_j."""

    beta: tuple
    p: tuple

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        p = tuple(float(x) for x in self.p)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p)
        if len(beta) != len(p) or not beta:
            raise ConfigError("beta and p must be equal-length, nonempty")
        if not all(b > 0 for b in beta) or not abs(sum(beta) - 1.0) <= 1e-12:
            raise ConfigError("axis weights must be positive and sum to 1")
        if any(not 0.0 < x < 1.0 for x in p):
            raise ConfigError("axis up-probabilities must lie strictly in (0,1)")

    @classmethod
    def simple(cls, d: int) -> "LatticeNN":
        return cls(beta=(1.0 / d,) * d, p=(0.5,) * d)

    @property
    def dim(self) -> int:
        return len(self.beta)

    def step_support(self):
        """[(step, probability)], each step an integer coordinate tuple."""
        out = []
        for j, (b, pj) in enumerate(zip(self.beta, self.p)):
            up = tuple(1 if i == j else 0 for i in range(self.dim))
            dn = tuple(-1 if i == j else 0 for i in range(self.dim))
            out.append((up, b * pj))
            out.append((dn, b * (1.0 - pj)))
        return out

    # analytics hooks, asked once per factor by analyze_factor
    def invariants(self):
        d = self.dim
        sing = None
        if d >= 5:
            sing = SingularityDescriptor.from_qk((d - 2) / 2.0, 0 if d % 2 == 1 else 1)
        return lattice.convergence_radius(self.beta, self.p), 2, sing

    def series(self, order: int) -> PowerSeries:
        return lattice.return_series(self.beta, self.p, order)

    def radius_series(self, order: int):
        """(rho, G(rho x)).  c_n rho^n is the return probability of the
        symmetric walk with axis weights proportional to c_j = beta_j
        sqrt(4 p_j (1 - p_j)): the per-axis factors (p_j (1 - p_j))^(n_j/2)
        collect into (sum_j c_j)^n.  With every p_j = 1/2, rho is 1.0 and the
        series is `series` bit for bit.  `lattice.return_series` keeps the
        laws it builds, so the factors of one product share them."""
        c = lattice.axis_coupling(self.beta, self.p)
        rho = float(np.sum(self.beta)) / float(np.sum(c))
        return rho, lattice.return_series(c, (0.5,) * len(c), order)

    def green(self, z: float, deriv: int) -> float:
        return lattice.green(self.beta, self.p, z, deriv)

    def recurrent_psi_limit(self) -> float:
        return 0.0  # null-recurrent (Z^1, Z^2): w -> inf with Psi -> 0


@dataclass(frozen=True)
class FiniteGroup:
    """Group-invariant walk on a finite group given by its Cayley table.

    P[x][y] must equal mu(x^-1 y) where mu = P[id]; the table, identity and
    invariance are all validated on construction.  Its return series is a
    rational function of z, and so is its first-return kernel
    (`first_return_form`).
    """

    P: tuple
    id: int
    table: tuple

    def __post_init__(self):
        P = tuple(tuple(float(v) for v in row) for row in self.P)
        table = tuple(tuple(int(v) for v in row) for row in self.table)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "table", table)
        n = len(P)
        if n < 1 or any(len(r) != n for r in P):
            raise ConfigError("P must be square")
        if n < 2:
            raise ConfigError("a finite group needs at least two elements: free product factors are nontrivial")
        if len(table) != n or any(len(r) != n for r in table):
            raise ConfigError("Cayley table must match the order of P")
        if not 0 <= self.id < n:
            raise ConfigError("identity index out of range")
        for row in P:
            if not all(v >= 0 for v in row) or not abs(sum(row) - 1.0) <= 1e-12:
                raise ConfigError("P must be row-stochastic")
        self._validate_group(n)
        self._validate_invariance(n)
        if len(self.forward_dist) != n:
            raise ConfigError("support of the walk must generate the group")

    def _validate_group(self, n):
        t = self.table
        e = self.id
        if any(t[e][x] != x or t[x][e] != x for x in range(n)):
            raise ConfigError("identity row/column malformed in Cayley table")
        for x in range(n):
            if sorted(t[x]) != list(range(n)) or sorted(r[x] for r in t) != list(range(n)):
                raise ConfigError("Cayley table rows/columns must be permutations")
            if e not in t[x]:
                raise ConfigError("element without inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise ConfigError("Cayley table is not associative")

    def _validate_invariance(self, n):
        inv = [0] * n
        for x in range(n):
            inv[x] = self.table[x].index(self.id)
        mu = self.P[self.id]
        for x in range(n):
            for y in range(n):
                if abs(self.P[x][y] - mu[self.table[inv[x]][y]]) > 1e-12:
                    raise ConfigError("P is not group-invariant for the given table")

    @property
    def order(self) -> int:
        return len(self.P)

    def matrix(self) -> np.ndarray:
        return np.array(self.P, dtype=float)

    def step_support(self):
        mu = self.P[self.id]
        return [(g, mu[g]) for g in range(self.order) if mu[g] > 0.0]

    @cached_property
    def forward_dist(self) -> dict:
        """Steps from the identity to each element it reaches, by forward BFS."""
        supp = [g for g, _ in self.step_support()]
        dist = {self.id: 0}
        frontier = [self.id]
        while frontier:
            nxt = []
            for x in frontier:
                for s in supp:
                    y = self.table[x][s]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist

    @cached_property
    def dist_table(self) -> tuple:
        """Steps from each element back to the identity: x s_1 ... s_k = e
        exactly when s_1 ... s_k = x^-1, so it is the forward distance of x^-1."""
        return tuple(self.forward_dist[row.index(self.id)] for row in self.table)

    def invariants(self):
        # gcd of (dist[x] + 1 - dist[y]) over support edges x -> y, the standard
        # period of a strongly connected digraph
        dist = self.forward_dist
        supp = [g for g, _ in self.step_support()]
        period = 0
        for x in dist:
            for s in supp:
                period = math.gcd(period, dist[x] + 1 - dist[self.table[x][s]])
        # a stochastic matrix has spectral radius exactly 1
        return 1.0, period, None

    def series(self, order: int) -> PowerSeries:
        P = self.matrix()
        row = np.zeros(self.order)
        row[self.id] = 1.0
        out = np.zeros(order + 1)
        out[0] = 1.0
        for n in range(1, order + 1):
            row = row @ P
            out[n] = row[self.id]
        return PowerSeries(out)

    def radius_series(self, order: int):
        return 1.0, self.series(order)

    def first_return_form(self, period: int):
        """(a, r, Q, c) of the first-return kernel of the walk watched every
        `period` steps, K(y) = a + y r^T (I - yQ)^-1 c, in closed rational
        form.  With A = P^period, a = A(e, e), and r, Q and c are A's row of
        e, its restriction and its column of e over the other elements that
        A reaches from e: a first return in y^(n+1) leaves e for some x,
        walks n - 1 steps off e and steps back.  Its coefficients are those
        of the kernel of the decimated return series."""
        A = np.linalg.matrix_power(self.matrix(), period)
        reach, frontier = {self.id}, [self.id]
        while frontier:
            frontier = [y for x in frontier for y in np.flatnonzero(A[x]).tolist() if y not in reach]
            reach.update(frontier)
        off = sorted(reach - {self.id})
        return float(A[self.id, self.id]), A[self.id, off], A[np.ix_(off, off)], A[off, self.id]

    def green(self, z: float, deriv: int) -> float:
        if z >= 1.0 - 1e-13:
            return math.inf
        P = self.matrix()
        e = np.zeros(self.order)
        e[self.id] = 1.0
        M = np.eye(self.order) - z * P
        u = np.linalg.solve(M, e)
        if deriv == 0:
            return float(u[self.id])
        v = np.linalg.solve(M.T, e)
        pu = P @ u
        if deriv == 1:
            return float(v @ pu)
        return float(2.0 * (v @ (P @ np.linalg.solve(M, pu))))

    def recurrent_psi_limit(self) -> float:
        return 1.0 / self.order  # positive recurrent: the stationary mass pi(e)


def cyclic_group(n: int, mu) -> FiniteGroup:
    """Z/nZ with step distribution mu over residues 0..n-1."""
    mu = tuple(float(v) for v in mu)
    if len(mu) != n:
        raise ConfigError("mu must list a probability per residue")
    P = tuple(tuple(mu[(y - x) % n] for y in range(n)) for x in range(n))
    table = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    return FiniteGroup(P=P, id=0, table=table)


def flip_group() -> FiniteGroup:
    """Z/2Z with the deterministic flip step."""
    return cyclic_group(2, (0.0, 1.0))


@dataclass(frozen=True)
class HomTree:
    """Uniform walk on the free product of q copies of Z/2Z (q-regular tree)."""

    q: int

    def __post_init__(self):
        if self.q < 2:
            raise ConfigError("tree degree must be at least 2")

    def step_support(self):
        """[(step, probability)], step g the one-letter reduced word (g,)."""
        return [((g,), 1.0 / self.q) for g in range(self.q)]

    def invariants(self):
        _validate_tree_closed_form(self.q)
        sing = SingularityDescriptor.from_qk(0.5, 0) if self.q >= 3 else None
        return _tree_radius(self.q), 2, sing

    def series(self, order: int) -> PowerSeries:
        return self._series(order, 1.0)

    def radius_series(self, order: int):
        rho = _tree_radius(self.q)
        return rho, self._series(order, rho)

    def _series(self, order: int, rho: float) -> PowerSeries:
        """G(rho x).  F = z/q + ((q-1)/q) z F^2 is the first passage from a
        neighbour to the root; in x = z/rho each z brings a factor rho.

        Coefficient n of F^2 is a dot of n - 2 terms, taken by `serial_dot`:
        a BLAS dot would split it across threads past 10,000 terms, and the
        coefficients from n = 10,003 on would depend on the core count."""
        q = self.q
        f = np.zeros(order + 1)
        if order >= 1:
            f[1] = rho / q
        step = (q - 1.0) / q * rho
        for n in range(3, order + 1, 2):
            f[n] = step * serial_dot(f[1 : n - 1], f[n - 2 : 0 : -1])
        u = np.zeros(order + 1)
        u[1:] = rho * f[:-1]  # U = z F
        return series_reciprocal(PowerSeries(np.concatenate([[1.0], np.zeros(order)])) - PowerSeries(u))

    def green(self, z: float, deriv: int) -> float:
        return _tree_green_closed(self.q, z, deriv)

    def recurrent_psi_limit(self) -> float:
        return 0.0  # null-recurrent (q = 2 is Z^1)


@dataclass(frozen=True)
class ExplicitSeries:
    """Explicit return-probability series with asserted radius metadata."""

    coeffs: tuple
    radius: float
    g_at_r: float
    gprime_at_r: float
    sing: Optional[tuple]  # (q, k) of the leading singular term, if known
    period: int

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 1.0:
            raise ConfigError("explicit series must start with coefficient 1")
        if any(not 0.0 <= c <= 1.0 for c in coeffs):
            raise ConfigError("explicit series coefficients must be probabilities")
        if not 0.0 < self.radius < math.inf:
            raise ConfigError("radius must be positive and finite")
        if math.isfinite(self.gprime_at_r) and not math.isfinite(self.g_at_r):
            raise ConfigError("finite G' at the radius needs finite G")
        if not self.g_at_r >= 1.0:
            raise ConfigError("G at the radius is at least 1")
        if not self.gprime_at_r >= 0.0:
            raise ConfigError("G' at the radius is nonnegative")
        if self.sing is not None:
            try:
                darboux_map(*self.sing)
            except InvalidSingularity as exc:
                raise ConfigError(f"singularity descriptor: {exc}") from None
        if self.period < 1:
            raise ConfigError("period must be a positive integer")
        # the product's solve reads each factor only on the period lattice
        off = next((n for n, c in enumerate(coeffs) if c != 0.0 and n % self.period), None)
        if off is not None:
            raise ConfigError(
                f"explicit series coefficient {off} is nonzero, but {off} is not a "
                f"multiple of the period {self.period}"
            )

    def step_support(self):
        raise ConfigError("explicit-series factors carry no group elements")

    def invariants(self):
        sing = None
        if self.sing is not None:
            sing = SingularityDescriptor.from_qk(float(self.sing[0]), int(self.sing[1]))
        return self.radius, self.period, sing

    def series(self, order: int) -> PowerSeries:
        return PowerSeries(np.array(self.coeffs)).pad(order).truncate(order)

    def radius_series(self, order: int):
        return self.radius, self.series(order).scale_arg(self.radius)

    def green(self, z: float, deriv: int) -> float:
        if z >= self.radius * (1.0 - 1e-13):
            return (self.g_at_r, self.gprime_at_r, math.inf)[deriv]
        return _poly_value(np.array(self.coeffs), z, deriv)

    def recurrent_psi_limit(self) -> float:
        # approximate the limit from the truncated sums to DEFAULT_ORDER
        coeffs = self.series(DEFAULT_ORDER).coeffs
        z = self.radius * (1.0 - 10.0 / DEFAULT_ORDER)
        return _psi_from_values(z, _poly_value(coeffs, z, 0), _poly_value(coeffs, z, 1))


def _poly_value(coeffs: np.ndarray, z: float, deriv: int) -> float:
    """d^deriv/dz^deriv of sum_n coeffs[n] z^n, in Horner form: the partial
    sums stay bounded where z^n alone overflows.  Each derivative scales
    coefficient n by n once, as numpy's `polyder` does."""
    for _ in range(deriv):
        if coeffs.size <= 1:
            return 0.0
        coeffs = np.arange(1, coeffs.size) * coeffs[1:]
    return horner(coeffs, z)


FactorSpec = Union[LatticeNN, FiniteGroup, HomTree, ExplicitSeries]


# ---------------------------------------------------------------------------
# singularity descriptor

_INT_TOL = 1e-9


def darboux_map(q: float, k: int):
    """Map a leading singular term (rho-z)^q log^k(rho-z) to law exponents.

    Returns (lambda, kappa) with lambda = q + 1 and kappa = k, except that an
    integer q consumes one log power (kappa = k - 1); integer q with k = 0 has
    no singular part at all.
    """
    if not 0 < q < math.inf or k < 0 or int(k) != k:
        raise InvalidSingularity(f"need finite q > 0 and integer k >= 0, got ({q}, {k})")
    is_int = abs(q - round(q)) < _INT_TOL
    if is_int and k == 0:
        raise InvalidSingularity(f"(q, k) = ({q}, 0) with integer q is analytic")
    return q + 1.0, int(k) - 1 if is_int else int(k)


@dataclass(frozen=True)
class SingularityDescriptor:
    """Leading singular term (rho - z)^q log^k (rho - z) and its return-law exponents."""

    q: float
    k: int
    lam: float
    kappa: int

    @classmethod
    def from_qk(cls, q: float, k: int) -> "SingularityDescriptor":
        lam, kappa = darboux_map(q, k)
        return cls(q=q, k=k, lam=lam, kappa=kappa)


# ---------------------------------------------------------------------------
# analytics


@dataclass
class GreenAnalytics:
    """Computed invariants of one factor; evaluations go through .green()."""

    spec: FactorSpec
    radius: float
    g_at_r: float
    gprime_at_r: float
    theta: float
    period: int
    sing: Optional[SingularityDescriptor]
    psi_at_radius: float
    _green: Callable = field(repr=False)

    def green(self, z: float, deriv: int = 0) -> float:
        """G^(deriv)(z) on [0, radius]; +inf where divergent."""
        if deriv not in (0, 1, 2):
            raise OutOfDomain(f"deriv must be 0, 1 or 2, got {deriv}")
        if z < 0.0 or z > self.radius * (1.0 + 1e-12):
            raise OutOfDomain(f"z={z} outside [0, {self.radius}]")
        return self._green(min(z, self.radius), deriv)

    def w(self, z: float) -> float:
        """The strictly increasing map w(z) = z G(z)."""
        return z * self.green(z)


def _tree_radius(q: int) -> float:
    return q / (2.0 * math.sqrt(q - 1.0))


def _tree_green_closed(q: int, z: float, deriv: int) -> float:
    if z >= _tree_radius(q) * (1.0 - 1e-13):
        r = 0.0  # snap: the discriminant cancels to rounding noise here
    else:
        r = math.sqrt(q * q - 4.0 * (q - 1.0) * z * z)
    den = (q - 2.0) + r
    if deriv == 0:
        return math.inf if den == 0.0 else 2.0 * (q - 1.0) / den
    if r == 0.0:
        return math.inf
    a = q - 1.0
    if deriv == 1:
        return 8.0 * a * a * z / (r * den * den)
    return 8.0 * a * a * (
        1.0 / (r * den * den)
        + 4.0 * a * z * z / (r**3 * den * den)
        + 8.0 * a * z * z / (r * r * den**3)
    )


def _psi_from_values(z: float, g: float, gp: float) -> float:
    # Psi(z G(z)) = G^2 / (z G' + G) = 1 / (z U' + 1 - U)
    if math.isinf(gp):
        return 0.0
    return g * g / (z * gp + g)


@lru_cache(maxsize=_ANALYTICS_CACHE_SIZE)
def analyze_factor(spec: FactorSpec) -> GreenAnalytics:
    """Compute all invariants of one factor's walk, cached per factor.

    Psi's limit at the radius is finite or zero in every case: an honest
    evaluation with finite G and G', 0 where G' diverges, and the kind's
    recurrent limit where G does.
    """
    radius, period, sing = spec.invariants()
    ev = lru_cache(maxsize=_GREEN_CACHE_SIZE)(spec.green)
    g_r = ev(radius, 0)
    gp_r = ev(radius, 1)
    if math.isfinite(g_r):
        theta = radius * g_r
        psi_r = _psi_from_values(radius, g_r, gp_r)
    else:
        theta = math.inf
        psi_r = spec.recurrent_psi_limit()
    return GreenAnalytics(
        spec=spec,
        radius=radius,
        g_at_r=g_r,
        gprime_at_r=gp_r,
        theta=theta,
        period=period,
        sing=sing,
        psi_at_radius=psi_r,
        _green=ev,
    )


@lru_cache(maxsize=64)
def _validate_tree_closed_form(q: int) -> None:
    # the closed form is implementation-derived: cross-check it against the
    # first-passage recurrence before first use
    s = HomTree(q).series(48)
    z = 0.4 * _tree_radius(q)
    direct = s(z)
    if abs(_tree_green_closed(q, z, 0) - direct) > 1e-10:
        raise RootNotBracketed(f"tree Green closed form failed self-check for q={q}")


# ---------------------------------------------------------------------------
# derived evaluations


def psi_at(an: GreenAnalytics, z: float) -> float:
    """Psi_i(z G_i(z)) for z in [0, radius], with the radius-limit conventions."""
    if z < 0.0 or z > an.radius * (1.0 + 1e-12):
        raise OutOfDomain(f"z={z} outside [0, {an.radius}]")
    if z == 0.0:
        return 1.0
    if z >= an.radius * (1.0 - _EDGE_RTOL):
        return an.psi_at_radius
    return _psi_from_values(z, an.green(z), an.green(z, 1))


def phi_at(an: GreenAnalytics, z: float, deriv: int = 0) -> float:
    """Phi_i^(deriv) at t = z G_i(z), one derivative as `green(z, deriv)` gives.

    Phi_i = G_i(z); Phi_i' = G'/(zG'+G); Phi_i'' = (G G'' - 2 G'^2)/(G + zG')^3
    (Woess, Random Walks on Infinite Graphs and Groups, 2000, section 9).
    Phi_i' reads no G'', so it is defined where G'' diverges; Phi_i'' raises
    NeedsDerivative there.
    """
    g = an.green(z)
    if not math.isfinite(g):
        raise OutOfDomain("Phi data undefined where G diverges")
    if deriv == 0:
        return g
    gp = an.green(z, 1)
    if deriv == 1:
        return 1.0 / z if math.isinf(gp) else gp / (z * gp + g)
    gpp = an.green(z, 2)
    if not math.isfinite(gpp):
        raise NeedsDerivative(f"G'' infinite at z={z}; Phi'' not computable there")
    return (g * gpp - 2.0 * gp * gp) / (g + z * gp) ** 3


def invert_w(an: GreenAnalytics, t: float) -> float:
    """The unique z in [0, radius] with z G(z) = t, for 0 <= t < theta."""
    if t < 0.0:
        raise OutOfDomain("w arguments are nonnegative")
    if t == 0.0:
        return 0.0
    if math.isfinite(an.theta):
        if t > an.theta * (1.0 + 1e-12):
            raise OutOfDomain(f"t={t} is not below theta={an.theta}")
        if t >= an.theta * (1.0 - 1e-12):
            return an.radius
        hi = an.radius
    else:
        # w is unbounded: walk the bracket towards the radius, staying clear
        # of the evaluators' at-the-radius divergence band
        hi = an.radius * 0.5
        while an.w(hi) < t:
            gap = an.radius - hi
            if gap <= an.radius * 2e-13:
                return hi
            hi = an.radius - 0.5 * gap
    f = lambda z: z * an.green(z) - t
    if f(hi) < 0.0:
        raise RootNotBracketed(f"w inversion bracket failed at t={t}")
    return brent(f, 0.0, hi, xtol=1e-15, rtol=_ROOT_RTOL, maxiter=200)


def psi_at_argument(an: GreenAnalytics, t: float) -> float:
    """Psi_i(t) for t in [0, theta_i], including the endpoint limit (which
    covers t = theta_i = inf)."""
    if t == 0.0:
        return 1.0
    if t >= an.theta * (1.0 - 1e-12):
        if t > an.theta * (1.0 + 1e-12):
            raise OutOfDomain(f"t={t} exceeds theta={an.theta}")
        return an.psi_at_radius
    z = invert_w(an, t)
    return psi_at(an, z)
