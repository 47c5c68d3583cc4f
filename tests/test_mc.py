import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_array

from fprw import mc
from fprw.errors import ConfigError, StateExplosion
from fprw.factors import FiniteGroup, HomTree, LatticeNN, cyclic_group, flip_group
from fprw.product import FreeProductSpec, product_green_series

from .oracles import combine, word_erase_cost, word_is_normal, word_multiply

C2 = flip_group()
C3 = cyclic_group(3, (0.0, 0.5, 0.5))
Z1 = LatticeNN.simple(1)


def spec_of(*pairs):
    factors, weights = zip(*pairs)
    return FreeProductSpec(factors, weights)


def symmetric_three(mu) -> FiniteGroup:
    """S_3 with step law mu over its permutations in lexicographic order."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    inv = [table[x].index(0) for x in range(6)]
    P = [[mu[table[inv[x]][y]] for y in range(6)] for x in range(6)]
    return FiniteGroup(P=P, id=0, table=table)


# ---------------------------------------------------------------------------
# tuple-word oracle: the propagation and the walks on tuple words that the
# coded algebra replaced, kept here to test it against


def tuple_ball(spec, order):
    """(words, targets): the tuple words of the ball and targets[k][w], the
    index of word w times support step k, or -1 outside the ball.

    A word is kept when the level at which the search first reaches it (the
    steps needed to reach it) plus its erase cost is at most `order`.
    """
    factors = spec.factors
    support = mc._support(spec)
    states = [()]
    index = {(): 0}
    frontier = [()]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for w in frontier:
            for i, g, _ in support:
                t = word_multiply(factors, w, i, g)
                if t not in index and level + word_erase_cost(factors, t) <= order:
                    index[t] = len(states)
                    states.append(t)
                    nxt.append(t)
        frontier = nxt
    targets = np.array(
        [[index.get(word_multiply(factors, w, i, g), -1) for w in states] for i, g, _ in support]
    )
    return states, targets


def tuple_bfs(spec, order):
    """(mu^(n)(e) for n <= order, number of words) by tuple-word propagation."""
    support = mc._support(spec)
    states, targets = tuple_ball(spec, order)
    mass = np.zeros(len(states))
    mass[0] = 1.0
    out = np.zeros(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        nxt = np.zeros(len(states))
        for k, (_, _, p) in enumerate(support):
            keep = targets[k] >= 0
            np.add.at(nxt, targets[k][keep], p * mass[keep])
        mass = nxt
        out[n] = mass[0]
    return out, len(states)


def csr_propagation(spec, order):
    """mu^(n)(e) for n <= order by a CSR mat-vec over the tuple-word ball.

    Row w lists the predecessors of w in support order, so each word's mass is
    summed from 0.0 in the order bfs_convolution sums it; since a step has one
    predecessor per word, the numbering of the words does not matter.
    """
    states, targets = tuple_ball(spec, order)
    probs = np.array([p for _, _, p in mc._support(spec)])
    nwords = len(states)
    source = np.full((nwords, probs.size), -1)
    for k, target in enumerate(targets):
        stays = np.flatnonzero(target >= 0)
        source[target[stays], k] = stays
    has = source >= 0
    indptr = np.concatenate(([0], np.cumsum(has.sum(axis=1))))
    transition = csr_array(
        (np.broadcast_to(probs, has.shape)[has], source[has], indptr), shape=(nwords, nwords)
    )
    mass = np.zeros(nwords)
    mass[0] = 1.0
    out = np.zeros(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        mass = transition @ mass
        out[n] = mass[0]
    return out


def tuple_block(spec, seed, block, nwalks, steps):
    """Return counts of one block of walks, multiplied out on tuple words."""
    support = mc._support(spec)
    rng = np.random.Generator(np.random.Philox(key=[seed, block]))
    probs = np.array([p for _, _, p in support])
    counts = np.zeros(steps + 1, dtype=np.int64)
    counts[0] = nwalks
    for row in rng.choice(len(support), size=(nwalks, steps), p=probs):
        word = ()
        for n, k in enumerate(row, start=1):
            i, g, _ = support[k]
            word = word_multiply(spec.factors, word, i, g)
            counts[n] += not word
    return counts


def tuple_simulate(spec, steps, walks, seed):
    sizes = [min(mc._SIM_BLOCK, walks - lo) for lo in range(0, walks, mc._SIM_BLOCK)]
    parts = [tuple_block(spec, seed, b, n, steps) for b, n in enumerate(sizes)]
    return tuple(int(c) for c in np.sum(parts, axis=0))


TUNED_Z3 = LatticeNN(beta=(0.5, 0.3, 0.2), p=(0.3, 0.5, 0.7))
ORACLE_SPECS = {
    "C2*C3": spec_of((C2, 0.45), (cyclic_group(3, (0.0, 0.3, 0.7)), 0.55)),
    "C4-identity-steps*C3": spec_of((cyclic_group(4, (0.2, 0.3, 0.1, 0.4)), 0.6), (C3, 0.4)),
    "S3*Z1": spec_of((symmetric_three((0.1, 0.25, 0.15, 0.2, 0.2, 0.1)), 0.5), (Z1, 0.5)),
    "tunedZ3*T3": spec_of((TUNED_Z3, 0.55), (HomTree(3), 0.45)),
    "C2*C2*C2": spec_of((C2, 1 / 3), (C2, 1 / 3), (C2, 1 / 3)),
    "Z1*C3*T4": spec_of((Z1, 0.3), (C3, 0.3), (HomTree(4), 0.4)),
}

# supports not closed under inverses: a word costs more to erase than to reach
ASYMMETRIC_SPECS = {
    "C3-rotation*C2": spec_of((cyclic_group(3, (0.0, 1.0, 0.0)), 0.5), (C2, 0.5)),
    "C4-support-1-2*C2": spec_of((cyclic_group(4, (0.0, 0.5, 0.5, 0.0)), 0.5), (C2, 0.5)),
}


class TestCodedAgainstTuples:
    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_simulate_returns_identical(self, monkeypatch, name):
        monkeypatch.setattr(mc, "_SIM_BLOCK", 1024)
        spec = ORACLE_SPECS[name]
        got = mc.simulate(spec, steps=12, walks=2500, seed=31)
        assert got.returns == tuple_simulate(spec, 12, 2500, 31)

    def test_simulate_wide_lattice_codes(self, monkeypatch):
        # radix 201 at 100 steps: 201**9 overflows int64, so codes are Python ints
        monkeypatch.setattr(mc, "_SIM_BLOCK", 128)
        z9 = LatticeNN.simple(9)
        spec = spec_of((z9, 0.5), (z9, 0.5))
        assert mc._Letters(spec, reach=100).dtype is object
        got = mc.simulate(spec, steps=100, walks=300, seed=5)
        assert got.returns == tuple_simulate(spec, 100, 300, 5)

    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_bfs_matches_tuple_propagation(self, name):
        spec = ORACLE_SPECS[name]
        order = 6 if any(isinstance(f, LatticeNN) for f in spec.factors) else 14
        got = mc.bfs_convolution(spec, order).coeffs
        want, _ = tuple_bfs(spec, order)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", list(ASYMMETRIC_SPECS))
    def test_bfs_matches_series_on_asymmetric_support(self, name):
        # the erase-cost ball of radius order // 2 gave mu^(8)(e) = 0.046875
        # on C3-rotation*C2, where the series gives 0.05078125
        spec = ASYMMETRIC_SPECS[name]
        got = mc.bfs_convolution(spec, 14).coeffs
        want = product_green_series(spec, 14).coeffs
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got, tuple_bfs(spec, 14)[0], rtol=1e-14, atol=0.0)


# exact columns of `fprw simulate`, at the order exact_column_order allows for 14
COLUMN_SPECS = {
    "Z2*C3": spec_of((LatticeNN.simple(2), 0.5), (C3, 0.5)),
    "Z1*Z1": spec_of((Z1, 0.5), (Z1, 0.5)),
    "Z3*T4": spec_of((LatticeNN.simple(3), 0.5), (HomTree(4), 0.5)),
    "C2^3": spec_of((C2, 1 / 3), (C2, 1 / 3), (C2, 1 / 3)),
}


class TestExactColumn:
    @pytest.mark.parametrize("name", list(COLUMN_SPECS))
    def test_bit_for_bit_with_csr_matvec(self, name):
        spec = COLUMN_SPECS[name]
        order = mc.exact_column_order(spec, 14)
        got = mc.bfs_convolution(spec, order).coeffs
        assert got.tobytes() == csr_propagation(spec, order).tobytes()

    @pytest.mark.parametrize("name", list(COLUMN_SPECS))
    def test_peak_memory_within_budget(self, name):
        spec = COLUMN_SPECS[name]
        order = mc.exact_column_order(spec, 14)
        words = mc.word_count_bound(spec, order)
        pairs = words * len(mc._support(spec))
        tracemalloc.start()
        try:
            mc.bfs_convolution(spec, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= words * mc._STATE_BYTES + pairs * mc._PAIR_BYTES

    @pytest.mark.parametrize(
        "spec",
        [spec_of((Z1, 0.5), (HomTree(4), 0.5)), spec_of((C3, 0.3), (LatticeNN.simple(6), 0.7)),
         spec_of((symmetric_three((0.1, 0.25, 0.15, 0.2, 0.2, 0.1)), 0.5), (C2, 0.5))],
        ids=["Z1*T4", "C3*Z6", "S3*C2"],
    )
    def test_support_is_counted_as_built(self, spec):
        assert mc.support_size(spec) == len(mc._support(spec))

    def test_support_limit_is_one_word_of_the_column(self):
        # (64 MiB - 128) // 64 = 1,048,574 steps; C2 adds one, and the tree
        # is counted, never built
        limit = (mc.EXACT_COLUMN_BYTES - mc._STATE_BYTES) // mc._PAIR_BYTES
        assert limit == 1_048_574
        assert mc.support_size(spec_of((C2, 0.5), (HomTree(limit - 1), 0.5))) == limit
        with pytest.raises(ConfigError, match="support has 1048575 steps"):
            mc.support_size(spec_of((C2, 0.5), (HomTree(limit), 0.5)))


class TestWordCountBound:
    @pytest.mark.parametrize("name", list(ORACLE_SPECS))
    def test_equals_state_count_on_symmetric_supports(self, name):
        spec = ORACLE_SPECS[name]
        for order in range(8):
            assert mc.word_count_bound(spec, order) == tuple_bfs(spec, order)[1]

    def test_bounds_asymmetric_support(self):
        for spec in ASYMMETRIC_SPECS.values():
            for order in range(12):
                assert mc.word_count_bound(spec, order) == tuple_bfs(spec, order)[1]

    def test_enumerated_counts(self):
        z2c3 = spec_of((LatticeNN.simple(2), 0.5), (C3, 0.5))
        z5z6 = spec_of((LatticeNN.simple(5), 0.5), (LatticeNN.simple(6), 0.5))
        assert mc.word_count_bound(z2c3, 14) == 26_739
        assert [mc.word_count_bound(z5z6, n) for n in (6, 8, 10)] == [6_127, 97_089, 1_538_375]

    def test_state_cap_checked_before_enumerating(self, monkeypatch):
        # Z5*Z6 at order 14: about 3.9e8 words, far past EXACT_COLUMN_BYTES
        def no_letters(*args):
            raise AssertionError("enumerated despite the bound")

        monkeypatch.setattr(mc, "_Letters", no_letters)
        s = spec_of((LatticeNN.simple(5), 0.5), (LatticeNN.simple(6), 0.5))
        with pytest.raises(StateExplosion, match="64 MiB"):
            mc.bfs_convolution(s, 14)

    def test_exact_column_order(self):
        z5z6 = spec_of((LatticeNN.simple(5), 0.5), (LatticeNN.simple(6), 0.5))
        z2c3 = spec_of((LatticeNN.simple(2), 0.5), (C3, 0.5))
        order = mc.exact_column_order(z5z6, 14)
        assert 1 <= order < 14
        per_state = mc._STATE_BYTES + mc._PAIR_BYTES * 22
        assert mc.word_count_bound(z5z6, order) * per_state <= mc.EXACT_COLUMN_BYTES
        assert mc.word_count_bound(z5z6, order + 1) * per_state > mc.EXACT_COLUMN_BYTES
        assert mc.exact_column_order(z2c3, 14) == 14
        assert mc.exact_column_order(z5z6, 3) == 3


class TestWordAlgebra:
    def test_paper_style_contraction(self):
        # (a c a^-1) then multiplying by a, c, a collapses to a c^2 a
        facs = (LatticeNN.simple(1), cyclic_group(3, (0.0, 0.5, 0.5)))
        w = ()
        for i, g in [(0, (1,)), (1, 1), (0, (-1,))]:
            w = word_multiply(facs, w, i, g)
        assert w == ((0, (1,)), (1, 1), (0, (-1,)))
        for i, g in [(0, (1,)), (1, 1), (0, (1,))]:
            w = word_multiply(facs, w, i, g)
        assert w == ((0, (1,)), (1, 2), (0, (1,)))

    def test_identity_is_noop(self):
        facs = (C2, C3)
        w = ((0, 1),)
        assert word_multiply(facs, w, 1, 0) == w

    def test_cancellation_to_empty(self):
        facs = (C2, C3)
        w = word_multiply(facs, (), 1, 1)
        w = word_multiply(facs, w, 1, 2)
        assert w == ()

    def test_normal_form_random_walk(self):
        facs = (Z1, C3, HomTree(3))
        rng = np.random.default_rng(7)
        supports = [f.step_support() for f in facs]
        w = ()
        for _ in range(4000):
            i = int(rng.integers(0, 3))
            g, _ = supports[i][int(rng.integers(0, len(supports[i])))]
            w = word_multiply(facs, w, i, g)
            assert word_is_normal(facs, w)

    def test_associativity_within_factor(self):
        facs = (C3, C2)
        for a in (1, 2):
            for b in (1, 2):
                w1 = word_multiply(facs, ((1, 1),), 0, a)
                w1 = word_multiply(facs, w1, 0, b)
                w2 = word_multiply(facs, ((1, 1),), 0, combine(facs[0], a, b))
                assert w1 == w2


class TestBfsConvolution:
    def test_initial_mass(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        g = mc.bfs_convolution(s, 0)
        assert g[0] == 1.0

    def test_two_by_two_two_steps(self):
        s = spec_of((C2, 0.5), (C2, 0.5))
        g = mc.bfs_convolution(s, 2)
        assert g[2] == pytest.approx(0.5, abs=1e-15)

    def test_four_path_enumeration(self):
        # (Z/2Z)*(Z/3Z), alpha=(.5,.5): return at n=2 via flip-flip (1/4)
        # or the Z/3Z pairs (1,2) and (2,1) (1/16 each)
        s = spec_of((C2, 0.5), (C3, 0.5))
        g = mc.bfs_convolution(s, 2)
        assert g[2] == pytest.approx(0.25 + 2.0 / 16.0, abs=1e-15)

    def test_probability_conservation_internal(self):
        # the propagation asserts sum(mass)+escaped == 1 at every step
        s = spec_of((Z1, 0.6), (C3, 0.4))
        g = mc.bfs_convolution(s, 16)
        assert np.all(g.coeffs >= 0.0)

    def test_state_cap(self):
        # the byte budget of exact_column_order: its order runs, the next is refused
        s = spec_of((LatticeNN.simple(5), 0.5), (LatticeNN.simple(6), 0.5))
        order = mc.exact_column_order(s, 14)
        assert mc.bfs_convolution(s, order).order == order
        with pytest.raises(StateExplosion):
            mc.bfs_convolution(s, order + 1)


class TestSimulate:
    def test_deterministic_given_seed(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        a = mc.simulate(s, steps=8, walks=500, seed=42)
        b = mc.simulate(s, steps=8, walks=500, seed=42)
        assert a == b
        c = mc.simulate(s, steps=8, walks=500, seed=43)
        assert a != c

    def test_zero_steps(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        r = mc.simulate(s, steps=0, walks=10, seed=1)
        assert r.returns == (10,)

    def test_within_binomial_error_of_exact(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        walks = 100_000
        r = mc.simulate(s, steps=12, walks=walks, seed=2024)
        exact = mc.bfs_convolution(s, 12)
        freq = r.frequencies()
        for n in range(1, 13):
            p = exact[n]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / walks)
            assert abs(freq[n] - p) <= 4.0 * sigma

    def test_block_partition_stability(self):
        # more walks than one block: counts must extend, not reshuffle
        s = spec_of((C2, 0.5), (C3, 0.5))
        small = mc.simulate(s, steps=6, walks=4096, seed=9)
        big = mc.simulate(s, steps=6, walks=8192, seed=9)
        second = tuple_block(s, seed=9, block=1, nwalks=4096, steps=6)
        assert np.array_equal(np.subtract(big.returns, small.returns), second)


def philox(key):
    return np.random.Generator(np.random.Philox(key=list(key)))


class TestDraw:
    # weights from 1e-12 to 1, zeros among them (a cdf with ties), on
    # supports on both sides of _COMPARE_MAX
    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=1, max_size=mc._COMPARE_MAX + 40
        ).filter(any),
        shape=st.lists(st.integers(0, 40), max_size=3).map(tuple),
        key=st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)),
    )
    @example(weights=[1.0] * (mc._COMPARE_MAX + 1), shape=(50, 3), key=(0, 0))
    @example(weights=[1e-12, 1.0, 1e-12, 0.0, 1e-12], shape=(4096, 14), key=(7, 1))
    def test_equals_choice(self, weights, shape, key):
        probs = np.array(weights) / math.fsum(weights)
        a, b = philox(key), philox(key)
        want = a.choice(probs.size, size=shape, p=probs)
        got = mc._draw(b, probs, shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert a.random() == b.random()  # the same draws consumed

    @pytest.mark.parametrize(
        "probs",
        [[0.5, 0.6], [1.2, -0.2], [0.5, 0.5 - 1e-7], [math.nan, 1.0], [0.0, 0.0]],
        ids=["sum-high", "negative", "sum-low", "nan", "all-zero"],
    )
    def test_invalid_probabilities_raise_as_choice_does(self, probs):
        probs = np.array(probs)
        with pytest.raises(ValueError):
            philox((1, 2)).choice(probs.size, size=5, p=probs)
        with pytest.raises(ValueError):
            mc._draw(philox((1, 2)), probs, (5,))

    def test_sum_within_tolerance_is_accepted_as_by_choice(self):
        probs = np.array([0.5, 0.5 + 1e-9])
        want = philox((1, 2)).choice(2, size=(3, 4), p=probs)
        assert np.array_equal(mc._draw(philox((1, 2)), probs, (3, 4)), want)
