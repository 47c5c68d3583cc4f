"""Ground-truth oracles for the functional-equation machinery.

Words of the free product are in normal form: no identity letters and no two
adjacent letters from the same factor.  Both oracles run on integer-coded
letters, compiled once per product (`_Letters`) from what each factor kind
answers in factors.py: its support size, its free factors (the q-regular tree
gives q copies of the flip C2, in support order, so the draws are kept), their
sphere sizes in fwd + bwd and their letter codes (Z^d's, +-R^j on each axis,
hold O(d^2 log R) bits in all).  No code here is per kind.

simulate advances all walks of a block together, on one of two
representations of their words:

- on the ball of order `steps` (below), a walk's state is its word's id in
  the ball's trie, and a step is one lookup in the ball's table of
  (word, step) -> word.  A step out of the ball goes to an absorbing escape
  state.  This loses no return: a walk that is at the identity at step
  n <= steps only visits words of the ball of order n, so one that has left
  the ball of order `steps` does not return within it;
- on letter stacks, a walk's word is a stack of (factor, code) letters, a
  walks x steps array plus a depth vector, and each step is a vectorised
  push, merge or pop.

The ball is taken where it fits EXACT_COLUMN_BYTES, by the budget test that
bfs_convolution applies, and where it is already built (`fprw simulate`
takes its exact column first) or building it costs less than the walk time
it saves (_ball_pays); elsewhere the walks run on letter stacks.  Both
give the same counts, walk for walk, from the same draws (`simulate`).

bfs_convolution propagates exact probability mass over words.  A walk that
is back at the identity by step `order` only visits words w with
fwd(w) + bwd(w) <= order, where fwd(w) counts the steps needed to reach w and
bwd(w) the steps needed to walk it back; both add up over the word's letters.
Only that ball of words is enumerated (for a support closed under inverses
fwd = bwd, and the ball is erase cost <= order // 2); mass crossing its
boundary goes to an escape bucket, which keeps the per-step totals at exactly
1.  The words form a trie (`_word_ball`), each keyed by the state id of its
prefix and its last letter, the ball's letters numbered densely, and the
levels are enumerated with np.unique/searchsorted.  Mass moves over a dense
table of each word's predecessor per support step: a step adds p_k times the
mass of the k-th predecessors, in support order, so every sum starts from 0.0
and matches, bit for bit, a mat-vec whose rows list the predecessors in that
order.  The mass that escapes per step is a dot over all words, summed on the
calling thread by `series.serial_dot`: as one BLAS dot past 10,000 words it
would wake OpenBLAS's thread pool.  The ball's words are counted level by
level from the factors' sphere sizes in fwd + bwd (_level_sizes), and the
count stops at the first level past the budget, so an order that does not
fit is refused before anything is enumerated, and at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # for the Philox streams: numpy would load it lazily, inside the first simulate

from .errors import ConfigError, StateExplosion
from .product import FreeProductSpec
from .series import PowerSeries, serial_dot

_SIM_BLOCK = 4096  # walks per RNG stream; fixed so seeding is partition-proof

# Memory that bfs_convolution may use, `fprw simulate`'s exact column included.
# At its peak it holds up to _STATE_BYTES per word plus _PAIR_BYTES per (word,
# support step) pair: trie arrays, a level's candidate arrays, the target table
# and the predecessor table.  Measured peaks (tracemalloc), word arrays
# included, were 52-59 bytes per pair on Z5*Z6, Z2*C3, Z1*Z1, Z3*T4 and C2^3;
# the constants leave room.
EXACT_COLUMN_BYTES = 64 << 20
_STATE_BYTES = 128
_PAIR_BYTES = 64
# the most support steps that leave room for one word: 1,048,574
MAX_SUPPORT = (EXACT_COLUMN_BYTES - _STATE_BYTES) // _PAIR_BYTES

_ESCAPE = -1  # the step leaves the ball
_IDENTITY = -2  # the step cancels the letter


# ---------------------------------------------------------------------------
# coded letters


def _locate(ordered: np.ndarray, values: np.ndarray):
    """(position, found) of each value in a sorted array."""
    pos = np.searchsorted(ordered, values)
    found = pos < ordered.size
    found[found] = ordered[pos[found]] == values[found]
    return pos, found


class _Letters:
    """A product's word algebra on integer codes, for coordinates within +-reach.

    Per support step k: its free factor `factor[k]`, the code `code[k]` it
    pushes, whether it moves at all (`live[k]`; a finite group's identity step
    does not), and its column in the merge table.  `identity[i]` is the code
    of free factor i's identity, and `coders[i]` writes its letters.
    """

    def __init__(self, spec: FreeProductSpec, reach: int):
        free = [(g, [a * p for p in ps]) for f, a in zip(spec.factors, spec.weights) for g, ps in f.free_factors()]
        self.probs = np.array([p for _, probs in free for p in probs])
        radix = 2 * max(reach, 1) + 1
        self.coders, table = [], []
        for group, _ in free:
            self.coders.append(group.letter_codes(radix, base=len(table)))  # one table row per finite element
            table += self.coders[-1].rows
        sizes = [len(c.steps) for c in self.coders]
        self.dtype = object if any(c.wide for c in self.coders) else np.int64
        self.factor = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        self.column = np.concatenate([np.arange(n) for n in sizes])
        self.code = np.array([s for c in self.coders for s in c.steps], dtype=self.dtype)
        self.identity = np.array([c.identity for c in self.coders], dtype=self.dtype)
        self.live = np.asarray(self.code != self.identity[self.factor], dtype=bool)
        width = max((len(row) for row in table), default=0)
        self.table = np.array([row + [-1] * (width - len(row)) for row in table], dtype=np.int64)
        self.looked_up = np.array([bool(c.rows) for c in self.coders])[self.factor]  # else a step adds its code
        self.added = np.where(self.looked_up, 0, self.code)

    def advance(self, codes: np.ndarray, k: np.ndarray) -> np.ndarray:
        """codes[j] times step k[j], each code a letter of k[j]'s factor."""
        if not self.looked_up.any():
            return codes + self.added[k]
        if self.looked_up.all():
            return self.table[codes, self.column[k]]
        out = codes + self.added[k]
        look = self.looked_up[k]
        out[look] = self.table[codes[look].astype(np.int64), self.column[k[look]]]
        return out

    def merge(self, codes: np.ndarray, k: np.ndarray):
        """(products, cancelled): advance(codes, k), and where the product
        is its factor's identity, so that the letter leaves the word."""
        products = self.advance(codes, k)
        return products, np.asarray(products == self.identity[self.factor[k]], dtype=bool)

    def ball(self, order: int):
        """Letters with fwd + bwd <= order, numbered densely by factor, then code.

        Returns (factor, cost, merge, push): letter l belongs to factor[l] and
        costs cost[l] = fwd + bwd; merge[l, column[k]] is the letter that l
        becomes after step k of its own factor; push[k] is the letter step k
        starts after a letter of another factor.  Both hold _IDENTITY where
        the product is the identity and _ESCAPE where it costs more than
        `order`.  A last row, letter -1, stands for the empty word: factor -1,
        cost 0.
        """
        ks = [np.flatnonzero(self.factor == i) for i in range(len(self.coders))]
        codes, costs = zip(*(c.ball(order, self.dtype) for c in self.coders))
        first = np.cumsum([0] + [c.size for c in codes])

        def lookup(i, products):
            """Letter ids of factor-i codes: _IDENTITY, or _ESCAPE outside the ball."""
            pos, hit = _locate(codes[i], products)
            out = np.where(hit, first[i] + pos, _ESCAPE)
            return np.where(products == self.identity[i], _IDENTITY, out)

        width = int(self.column.max(initial=-1)) + 1
        merge = np.full((int(first[-1]) + 1, width), _ESCAPE, dtype=np.int64)
        push = np.full(self.code.size, _ESCAPE, dtype=np.int64)
        for i, k in enumerate(ks):
            push[k] = lookup(i, self.code[k])
            n = codes[i].size
            if n:
                products = self.advance(np.repeat(codes[i], k.size), np.tile(k, n))
                merge[first[i] : first[i + 1], : k.size] = lookup(i, products).reshape(n, k.size)
        factor = np.append(np.repeat(np.arange(len(codes)), np.diff(first)), -1)
        cost = np.append(np.concatenate(costs), 0).astype(np.int64)
        return factor, cost, merge, push


def _level_sizes(spec: FreeProductSpec):
    """W(0), W(1), ...: the normal-form words with fwd + bwd = c, one c at a time.

    W_i(c), the words of cost c that start with a letter of factor i, is
    s_i(c) + sum_k s_i(k) sum_{j != i} W_j(c - k), with s_i(k) the factor's
    sphere sizes; the sum runs over the k < c with s_i(k) > 0, so a level
    costs a few operations per sphere of each factor met so far.
    """
    spheres = [g.sphere_size for f in spec.factors for g, _ in f.free_factors()]
    met = [[] for _ in spheres]  # factor i's (k, s_i(k)) with s_i(k) > 0
    words = [[0] for _ in spheres]
    total = [1]
    yield 1
    for c in itertools.count(1):
        for i, s in enumerate(spheres):
            sc = s(c)
            words[i].append(sc + sum(n * (total[c - k] - words[i][c - k]) for k, n in met[i]))
            if sc:
                met[i].append((c, sc))
        total.append(sum(w[c] for w in words))
        yield total[c]


def word_count_bound(spec: FreeProductSpec, order: int) -> int:
    """Normal-form words with fwd + bwd <= order, the empty word included:
    bfs_convolution's state count at `order`."""
    return sum(itertools.islice(_level_sizes(spec), order + 1))


def support_size(spec: FreeProductSpec) -> int:
    """Steps in the product's support, counted by the factors without
    building it.  A support of S steps gives the empty word _STATE_BYTES +
    _PAIR_BYTES S bytes in bfs_convolution, so one of more than MAX_SUPPORT
    steps fits no word of the exact column and is refused."""
    size = sum(f.support_size() for f in spec.factors)
    if size > MAX_SUPPORT:
        raise ConfigError(
            f"the product's support has {size} steps, too many for one word in {EXACT_COLUMN_BYTES >> 20} MiB"
        )
    return size


def _fitting_ball(spec: FreeProductSpec, order: int) -> tuple[int, int]:
    """(n, words): the largest order n <= `order` whose words fit
    EXACT_COLUMN_BYTES, and the number of those words.

    The words are counted level by level, and the count stops at the first
    level past the budget; orders 0 and 1 hold only the empty word, which
    support_size has made sure fits.
    """
    states = EXACT_COLUMN_BYTES // (_STATE_BYTES + _PAIR_BYTES * support_size(spec))
    count = 0
    for c, size in enumerate(itertools.islice(_level_sizes(spec), order + 1)):
        if count + size > states:
            return c - 1, count
        count += size
    return order, count


def exact_column_order(spec: FreeProductSpec, order: int) -> int:
    """The largest order <= `order` whose words fit EXACT_COLUMN_BYTES."""
    return _fitting_ball(spec, order)[0]


# ---------------------------------------------------------------------------
# exact convolution


_last_ball = {}  # {(spec, order): (table, probs)} of the last ball built


def _word_ball(spec: FreeProductSpec, order: int):
    """(table, probs): the transitions of the words with fwd + bwd <= order.

    table[w, k] is the state id of word w times support step k, where state
    0 is the empty word, and probs[k] is that step's probability.  A step
    that leaves the ball goes to _ESCAPE, and the last row, table[_ESCAPE],
    is the escape state: every step keeps it there.  Both arrays are
    read-only.  The last ball built is kept for the next call, so that
    `fprw simulate` walks and convolves on one ball, and it is dropped
    before another is built, so that two balls are never held at once.
    Callers check the budget first
    (exact_column_order).
    """
    key = (spec, order)
    if key not in _last_ball:
        _last_ball.clear()
        _last_ball[key] = _build_ball(spec, order)
    return _last_ball[key]


def _build_ball(spec: FreeProductSpec, order: int):
    """_word_ball's arrays, built anew."""
    bound = word_count_bound(spec, order)
    letters = _Letters(spec, reach=order // 2 + 1)
    lfactor, lcost, merge, push = letters.ball(order)
    nletters = lfactor.size
    moves = letters.live

    # trie of words: prefix state and last letter; the root is the empty word.
    # keys prefix * nletters + letter stay below bound**2, far inside int64.
    parent = np.full(bound, -1, dtype=np.int64)
    last = np.full(bound, -1, dtype=np.int64)
    cost = np.zeros(bound, dtype=np.int64)
    keys = np.zeros(0, dtype=np.int64)
    key_ids = np.zeros(0, dtype=np.int64)
    nstates = 1
    levels = []  # target of (state, step), one block per level
    lo = 0
    while lo < nstates:
        s = np.arange(lo, nstates)
        lo = nstates
        tail = last[s]
        same = lfactor[tail][:, None] == letters.factor[None, :]
        letter = np.where(same, merge[tail][:, letters.column], push[None, :])
        prefix = np.where(same, parent[s][:, None], s[:, None])
        target = np.where(moves, _ESCAPE, s[:, None])
        target = np.where(moves & (letter == _IDENTITY), prefix, target)
        grow = moves & (letter >= 0)
        grow[grow] = cost[prefix[grow]] + lcost[letter[grow]] <= order
        found, inverse = np.unique(prefix[grow] * nletters + letter[grow], return_inverse=True)
        pos, known = _locate(keys, found)
        fresh = found[~known]
        new_ids = np.arange(nstates, nstates + fresh.size)
        ids = np.empty(found.size, dtype=np.int64)
        ids[known] = key_ids[pos[known]]
        ids[~known] = new_ids
        nstates += fresh.size
        parent[new_ids] = fresh // nletters
        last[new_ids] = fresh % nletters
        cost[new_ids] = cost[parent[new_ids]] + lcost[last[new_ids]]
        at = np.searchsorted(keys, fresh)
        keys = np.insert(keys, at, fresh)
        key_ids = np.insert(key_ids, at, new_ids)
        target[grow] = ids[inverse]
        levels.append(target)
    del parent, last, cost, keys, key_ids
    levels.append(np.full((1, moves.size), _ESCAPE, dtype=np.int64))
    table = np.concatenate(levels)
    probs = letters.probs
    table.flags.writeable = probs.flags.writeable = False
    return table, probs


def bfs_convolution(spec: FreeProductSpec, order: int) -> PowerSeries:
    """Exact return probabilities mu^(n)(e) for n <= order by mass propagation
    over the ball of `order` (_word_ball).  An order past exact_column_order
    is refused before anything is enumerated.

    The escaped mass, summed on the calling thread by serial_dot, only feeds
    the check that the per-step totals stay at 1; mu^(n)(e) is the mass on
    the empty word."""
    fits = exact_column_order(spec, order)
    if fits < order:
        raise StateExplosion(
            f"the words of order {order} need more than {EXACT_COLUMN_BYTES >> 20} MiB; order {fits} fits"
        )
    table, probs = _word_ball(spec, order)
    target = table[:-1]  # without the escape state
    nstates, nsteps = target.shape

    # source[k, w]: the word that support step k takes to w, or -1 for none,
    # which indexes the trailing 0.0 of `padded`
    source = np.full((nsteps, nstates), -1, dtype=np.int64)
    for k in range(nsteps):
        stays = np.flatnonzero(target[:, k] >= 0)
        source[k, target[stays, k]] = stays
    escape = np.where(target < 0, probs, 0.0).sum(axis=1)

    padded = np.zeros(nstates + 1)
    padded[0] = 1.0
    mass = padded[:-1]
    escaped = 0.0
    out = np.zeros(order + 1)
    out[0] = 1.0
    for n in range(1, order + 1):
        escaped += serial_dot(escape, mass)
        new = np.zeros(nstates)
        for pk, pred in zip(probs.tolist(), source):
            new += pk * padded[pred]
        mass[:] = new
        total = float(np.sum(mass)) + escaped
        if abs(total - 1.0) > 1e-12:
            raise StateExplosion(f"probability mass drifted to {total}")
        out[n] = mass[0]
    return PowerSeries(out)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimulationResult:
    """Per-step return counts over independent walks."""

    steps: int
    walks: int
    seed: int
    returns: tuple  # returns[n] walks found at the identity after n steps

    def frequencies(self) -> np.ndarray:
        return np.array(self.returns, dtype=float) / self.walks


# supports of at most this many steps are drawn by comparisons into a uint8
# tally, longer ones by binary search.  Thread CPU for one block's draws,
# 4,096 walks x 14 steps, on 2 cores (numpy 2.4.6): the comparisons took 0.74
# ms against choice's 1.78 ms at K = 6, 1.2 against 3.5 ms at K = 32 and 3.9
# against 5.3 ms at K = 128, and the two were about equal at K = 256
_COMPARE_MAX = 128


def _tally(rng: np.random.Generator, probs: np.ndarray, shape: tuple) -> np.ndarray:
    """rng.choice(probs.size, size=shape, p=probs)'s values, bit for bit:
    uint8 on a support of at most _COMPARE_MAX steps, int64 past it.

    choice checks the probabilities, builds cdf = cumsum(probs) / its last
    entry, draws u = rng.random(shape) and returns the number of cdf entries
    <= u by binary search.  This does the same, but counts by probs.size - 1
    vectorised comparisons on a short support (cdf[-1] = 1 > u).
    """
    if (probs < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if not abs(math.fsum(probs) - 1.0) <= math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = rng.random(shape)
    if cdf.size > _COMPARE_MAX:
        return cdf.searchsorted(u, side="right")
    count = np.zeros(shape, dtype=np.uint8)
    for c in cdf[:-1].tolist():
        count += u >= c
    return count


def _ball_block(table: np.ndarray, probs: np.ndarray, seed: int, block: int, nwalks: int, steps: int):
    """counts[n], the walks of one block at the identity after n steps, on
    the table of a ball (_word_ball) of order at least `steps`.

    The steps are drawn as _simulate_block draws them, and each step is one
    lookup state = table[state, k]; a walk that leaves the ball stays in
    the escape state."""
    rng = np.random.Generator(np.random.Philox(key=[seed, block]))
    draws = _tally(rng, probs, (nwalks, steps)).T
    # a flat gather: 0.16 ms a block against table[state, k]'s 0.36 ms (Z2*C3,
    # 4,096 walks x 14 steps, 2 cores)
    flat, width = table.ravel(), table.shape[1]
    counts = np.zeros(steps + 1, dtype=np.int64)
    counts[0] = nwalks
    state = np.zeros(nwalks, dtype=np.int64)
    for n in range(steps):
        state = flat[state * width + draws[n]]
        counts[n + 1] = nwalks - np.count_nonzero(state)
    return counts


# simulate walks on a ball that fits only where building it costs less than
# the walk time it saves.  Thread CPU on 2 cores (Python 3.11.7, numpy 2.4.6),
# on C2*C2, C2*C3, C2^3, Z1*Z1, Z1*C2 and Z2*C3 at orders 8 to 10,000, blocks
# of 64 and 4,096 walks: a build took 170-250 ns per (word, support step)
# pair plus about 80 us per order (one trie level per letter), and a step on
# the ball in place of the letter stacks saved 44-107 us per block plus
# 45-122 ns per walk
_BUILD_NS_PER_PAIR = 200
_BUILD_NS_PER_ORDER = 80_000
_SAVED_NS_PER_BLOCK_STEP = 50_000
_SAVED_NS_PER_WALK_STEP = 70


def _ball_pays(pairs: int, steps: int, walks: int) -> bool:
    """Whether a ball of order `steps` and `pairs` (word, support step)
    pairs costs less to build than walking `walks` walks on it saves."""
    blocks = -(-walks // _SIM_BLOCK)
    build = _BUILD_NS_PER_PAIR * pairs + _BUILD_NS_PER_ORDER * steps
    return build <= steps * (_SAVED_NS_PER_BLOCK_STEP * blocks + _SAVED_NS_PER_WALK_STEP * walks)


def _simulate_block(letters: _Letters, seed: int, block: int, nwalks: int, steps: int):
    """(counts, stacks) of one block of walks: counts[n] walks are at the
    identity after n steps, and stacks = (factor, code, depth) are the final
    letter stacks, flat with stride nwalks per depth.  Walk w's word is the
    letters at depths 1..depth[w]; those above it are stale.

    The steps of every walk are drawn first, as rng.choice would draw them
    (`_tally`); the loop then advances all walks one step at a time."""
    rng = np.random.Generator(np.random.Philox(key=[seed, block]))
    counts = np.zeros(steps + 1, dtype=np.int64)
    counts[0] = nwalks
    draws = _tally(rng, letters.probs, (nwalks, steps)).T.astype(np.int32)
    # depth 0 is a bottom letter that matches no factor
    factor = np.full((steps + 1) * nwalks, -1, dtype=np.int32)
    code = np.zeros((steps + 1) * nwalks, dtype=letters.dtype)
    depth = np.zeros(nwalks, dtype=np.int64)
    walk = np.arange(nwalks)
    for n in range(steps):
        k = draws[n]
        f = letters.factor[k]
        moves = letters.live[k]
        same = factor[depth * nwalks + walk] == f
        w = np.flatnonzero(moves & ~same)
        depth[w] += 1
        at = depth[w] * nwalks + w
        factor[at] = f[w]
        code[at] = letters.code[k[w]]
        w = np.flatnonzero(moves & same)
        at = depth[w] * nwalks + w
        merged, gone = letters.merge(code[at], k[w])
        depth[w[gone]] -= 1
        code[at[~gone]] = merged[~gone]
        counts[n + 1] = nwalks - np.count_nonzero(depth)
    return counts, (factor, code, depth)


def simulate(spec: FreeProductSpec, steps: int, walks: int, seed: int) -> SimulationResult:
    """Empirical return profile from `walks` seeded trajectories.

    Walks are grouped in fixed-size blocks, each drawn from the Philox stream
    keyed (seed, block index), and the blocks run one after another.  Where
    the ball of order `steps` fits EXACT_COLUMN_BYTES and is already built
    (`_last_ball`) or building it pays for itself (_ball_pays), the walks run
    on its table (_ball_block), elsewhere on letter stacks (_simulate_block);
    both give the same counts.
    """
    if steps < 0 or walks < 1:
        raise ConfigError("need steps >= 0 and walks >= 1")
    support = support_size(spec)
    blocks = [(b, min(_SIM_BLOCK, walks - lo)) for b, lo in enumerate(range(0, walks, _SIM_BLOCK))]
    order, words = _fitting_ball(spec, steps)
    if order == steps and ((spec, steps) in _last_ball or _ball_pays(words * support, steps, walks)):
        table, probs = _word_ball(spec, steps)
        counts = sum(_ball_block(table, probs, seed, b, n, steps) for b, n in blocks)
    else:
        letters = _Letters(spec, reach=steps)
        counts = sum(_simulate_block(letters, seed, b, n, steps)[0] for b, n in blocks)
    return SimulationResult(steps=steps, walks=walks, seed=seed, returns=tuple(int(c) for c in counts))
