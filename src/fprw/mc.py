"""Ground-truth oracles for the functional-equation machinery.

Words of the free product are in normal form: no identity letters and no two
adjacent letters from the same factor.  Both oracles run on integer-coded
letters, compiled once per product (`_Letters`):

- a finite group's element is its index in the Cayley table, offset so that
  the finite factors' codes do not overlap; a letter merges with a step by a
  lookup in the table of (element, step) products;
- a Z^d element x is the exact integer sum_j x_j R^j with R = 2 reach + 1,
  where reach bounds every coordinate, so merging is addition; where R^d would
  overflow int64 the codes are Python integers;
- the q-regular tree is the free product of q copies of Z/2Z, so HomTree(q)
  becomes q C2 factors, one per tree step.  The support order is kept, and so
  are the draws.

simulate advances all walks of a block together.  The state is a walks x steps
stack of (factor, code) letters plus a depth vector, and each step is a
vectorised push, merge or pop.  Walks are grouped in fixed-size blocks, each
drawn from the Philox stream keyed (seed, block), so a walk's draws do not
depend on how many walks run beside it.  A block's steps are all drawn up
front by `_draw`, which gives Generator.choice's draws bit for bit but counts
cdf entries by comparisons on a short support, where choice runs a binary
search per draw.

bfs_convolution propagates exact probability mass over words.  A walk that
is back at the identity by step `order` only visits words w with
fwd(w) + bwd(w) <= order, where fwd(w) counts the steps needed to reach w and
bwd(w) the steps needed to walk it back; both add up over the word's letters.
Only that ball of words is enumerated (for a support closed under inverses
fwd = bwd, and the ball is erase cost <= order // 2); mass crossing its
boundary goes to an escape bucket, which keeps the per-step totals at exactly
1.  The words form a trie: each is keyed by the state id of its prefix and its
last letter, the ball's letters numbered densely, and the levels are
enumerated with np.unique/searchsorted.  Mass moves over a dense table of
each word's predecessor per support step: a step adds p_k times the mass of
the k-th predecessors, in support order, so every sum starts from 0.0 and
matches, bit for bit, a mat-vec whose rows list the predecessors in that
order.  The mass that escapes per step is a dot over all words, summed on
the calling thread by `series.serial_dot`: as one BLAS dot past 10,000 words
it would wake OpenBLAS's thread pool.  word_count_bound counts the ball's
words exactly from the factors' sphere sizes in fwd + bwd, so an order that
does not fit is refused before anything is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # for the Philox streams: numpy would load it lazily, inside the first simulate

from .errors import ConfigError, StateExplosion
from .factors import HomTree, LatticeNN, flip_group
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


def _support(spec: FreeProductSpec):
    out = []
    for i, (f, a) in enumerate(zip(spec.factors, spec.weights)):
        for g, p in f.step_support():
            out.append((i, g, a * p))
    return out


_C2 = flip_group()


def _free_factors(spec: FreeProductSpec):
    """[(group, step elements)] of the word algebra, steps in _support order.

    A tree step g is the flip of its own C2 factor.
    """
    out = []
    for f in spec.factors:
        if isinstance(f, HomTree):
            out.extend((_C2, [1]) for _ in range(f.q))
        else:
            out.append((f, [g for g, _ in f.step_support()]))
    return out


def _round_trip(group) -> np.ndarray:
    """fwd + bwd of each element of a finite group."""
    fwd = [group.forward_dist[x] for x in range(group.order)]
    return np.array(group.dist_table) + np.array(fwd)


def _sphere_sizes(group, order: int) -> list:
    """s[c], the number of elements with fwd + bwd = c, for c = 0..order.

    On Z^d both are the L1 norm: a point of norm k has j nonzero axes, j
    signs and a composition of k into j positive parts.
    """
    if isinstance(group, LatticeNN):
        d = group.dim
        l1 = [
            sum(2**j * math.comb(d, j) * math.comb(k - 1, j - 1) for j in range(1, min(d, k) + 1))
            for k in range(1, order // 2 + 1)
        ]
        return [1] + [0 if c % 2 else l1[c // 2 - 1] for c in range(1, order + 1)]
    hist = np.bincount(_round_trip(group), minlength=order + 1)
    return [int(c) for c in hist[: order + 1]]


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
    of factor i's identity and `base[i]` the code of a finite factor's
    element 0.
    """

    def __init__(self, spec: FreeProductSpec, reach: int):
        self.probs = np.array([p for _, _, p in _support(spec)])
        radix = 2 * max(reach, 1) + 1
        self.groups, self.base = [], []
        factor, code, live, column, identity, table = [], [], [], [], [], []
        wide = False
        for i, (group, steps) in enumerate(_free_factors(spec)):
            self.groups.append(group)
            factor += [i] * len(steps)
            column += range(len(steps))
            if isinstance(group, LatticeNN):
                place = [radix**j for j in range(group.dim)]
                wide = wide or radix**group.dim > 2**62
                self.base.append(0)
                identity.append(0)
                code += [sum(x * r for x, r in zip(g, place)) for g in steps]
                live += [True] * len(steps)
            else:
                base = len(table)  # one table row per finite element
                self.base.append(base)
                identity.append(base + group.id)
                code += [base + g for g in steps]
                live += [g != group.id for g in steps]
                table += [[base + row[g] for g in steps] for row in group.table]
        self.dtype = object if wide else np.int64
        self.factor = np.array(factor, dtype=np.int32)
        self.code = np.array(code, dtype=self.dtype)
        self.live = np.array(live, dtype=bool)
        self.column = np.array(column, dtype=np.int64)
        self.identity = np.array(identity, dtype=self.dtype)
        width = max((len(row) for row in table), default=0)
        self.table = np.array([row + [-1] * (width - len(row)) for row in table], dtype=np.int64)
        # merging: finite steps look up the table, lattice steps add their code
        self.looked_up = np.array([not isinstance(g, LatticeNN) for g in self.groups])[self.factor]
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
        ks = [np.flatnonzero(self.factor == i) for i in range(len(self.groups))]
        codes, costs = [], []
        for i, group in enumerate(self.groups):
            if isinstance(group, LatticeNN):
                # the L1 spheres: neighbours of sphere r - 1 lie on spheres r - 2 and r
                spheres = [np.zeros(1, dtype=self.dtype), _sorted_unique(self.code[ks[i]])]
                for _ in range(order // 2 - 1):
                    near = _sorted_unique((spheres[-1][:, None] + self.code[ks[i]][None, :]).ravel())
                    prev = spheres[-2]  # sorted: keep the neighbours not on it
                    pos = np.minimum(np.searchsorted(prev, near), prev.size - 1)
                    spheres.append(near[prev[pos] != near])
                spheres = spheres[1 : order // 2 + 1]
                codes.append(np.concatenate(spheres) if spheres else np.zeros(0, self.dtype))
                costs.append(np.repeat(np.arange(2, 2 * len(spheres) + 1, 2), [s.size for s in spheres]))
                by_code = np.argsort(codes[-1])
                codes[-1], costs[-1] = codes[-1][by_code], costs[-1][by_code]
            else:
                cost = _round_trip(group)
                inside = np.flatnonzero((cost > 0) & (cost <= order))
                codes.append((self.base[i] + inside).astype(self.dtype))
                costs.append(cost[inside])
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


def word_count_bound(spec: FreeProductSpec, order: int) -> int:
    """Normal-form words with fwd + bwd <= order, the empty word included.

    W_i(c), the words of cost c that start with a letter of factor i, is
    s_i(c) + sum_k s_i(k) sum_{j != i} W_j(c - k), with s_i(k) the factor's
    sphere sizes.  This is bfs_convolution's state count at `order`.
    """
    spheres = [_sphere_sizes(g, order) for g, _ in _free_factors(spec)]
    words = [[0] * (order + 1) for _ in spheres]
    total = [0] * (order + 1)
    for c in range(1, order + 1):
        for i, s in enumerate(spheres):
            words[i][c] = s[c] + sum(s[k] * (total[c - k] - words[i][c - k]) for k in range(1, c))
        total[c] = sum(w[c] for w in words)
    return 1 + sum(total)


def support_size(spec: FreeProductSpec) -> int:
    """Steps in the product's support, counted from the factors without
    building it: q on the q-regular tree, 2d on Z^d.  A support of S steps
    gives the empty word _STATE_BYTES + _PAIR_BYTES S bytes in
    bfs_convolution, so one of more than MAX_SUPPORT steps fits no word of
    the exact column and is refused."""
    size = sum(
        f.q if isinstance(f, HomTree) else 2 * f.dim if isinstance(f, LatticeNN) else len(f.step_support())
        for f in spec.factors
    )
    if size > MAX_SUPPORT:
        raise ConfigError(
            f"the product's support has {size} steps, too many for one word in {EXACT_COLUMN_BYTES >> 20} MiB"
        )
    return size


def exact_column_order(spec: FreeProductSpec, order: int) -> int:
    """The largest order <= `order` whose words fit EXACT_COLUMN_BYTES."""
    per_state = _STATE_BYTES + _PAIR_BYTES * support_size(spec)
    states = EXACT_COLUMN_BYTES // per_state
    while order > 1 and word_count_bound(spec, order) > states:
        order -= 1
    return order


# ---------------------------------------------------------------------------
# exact convolution


def bfs_convolution(spec: FreeProductSpec, order: int) -> PowerSeries:
    """Exact return probabilities mu^(n)(e) for n <= order by mass propagation.
    An order past exact_column_order is refused before anything is enumerated.

    The escaped mass, summed on the calling thread by serial_dot, only feeds
    the check that the per-step totals stay at 1; mu^(n)(e) is the mass on
    the empty word."""
    bound = word_count_bound(spec, order)
    if bound > EXACT_COLUMN_BYTES // (_STATE_BYTES + _PAIR_BYTES * support_size(spec)):
        raise StateExplosion(
            f"the words of order {order} need more than {EXACT_COLUMN_BYTES >> 20} MiB; "
            f"order {exact_column_order(spec, order)} fits"
        )
    letters = _Letters(spec, reach=order // 2 + 1)
    lfactor, lcost, merge, push = letters.ball(order)
    nletters = lfactor.size
    probs = letters.probs
    nsteps = probs.size
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
    target = np.concatenate(levels)
    del levels

    # source[k, w]: the word that support step k takes to w, or -1 for none,
    # which indexes the trailing 0.0 of `padded`
    source = np.full((nsteps, nstates), -1, dtype=np.int64)
    for k in range(nsteps):
        stays = np.flatnonzero(target[:, k] >= 0)
        source[k, target[stays, k]] = stays
    escape = np.where(target < 0, probs, 0.0).sum(axis=1)
    del target

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


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for a 1-d array, by one sort (np.unique would load numpy.ma)."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


# supports of at most this many steps are drawn by comparisons into a uint8
# tally, longer ones by binary search.  Thread CPU for one block's draws,
# 4,096 walks x 14 steps, on 2 cores (numpy 2.4.6): the comparisons took 0.74
# ms against choice's 1.78 ms at K = 6, 1.2 against 3.5 ms at K = 32 and 3.9
# against 5.3 ms at K = 128, and the two were about equal at K = 256
_COMPARE_MAX = 128


def _draw(rng: np.random.Generator, probs: np.ndarray, shape: tuple) -> np.ndarray:
    """rng.choice(probs.size, size=shape, p=probs), bit for bit.

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
    return count.astype(np.int64)


def _simulate_block(letters: _Letters, seed: int, block: int, nwalks: int, steps: int):
    """(counts, stacks) of one block of walks: counts[n] walks are at the
    identity after n steps, and stacks = (factor, code, depth) are the final
    letter stacks, flat with stride nwalks per depth.  Walk w's word is the
    letters at depths 1..depth[w]; those above it are stale.

    The steps of every walk are drawn first, as rng.choice would draw them
    (`_draw`); the loop then advances all walks one step at a time."""
    rng = np.random.Generator(np.random.Philox(key=[seed, block]))
    counts = np.zeros(steps + 1, dtype=np.int64)
    counts[0] = nwalks
    draws = _draw(rng, letters.probs, (nwalks, steps)).T.astype(np.int32)
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
    keyed (seed, block index), and the blocks run one after another.
    """
    if steps < 0 or walks < 1:
        raise ConfigError("need steps >= 0 and walks >= 1")
    support_size(spec)
    letters = _Letters(spec, reach=steps)
    counts = sum(
        _simulate_block(letters, seed, b, min(_SIM_BLOCK, walks - lo), steps)[0]
        for b, lo in enumerate(range(0, walks, _SIM_BLOCK))
    )
    return SimulationResult(steps=steps, walks=walks, seed=seed, returns=tuple(int(c) for c in counts))
