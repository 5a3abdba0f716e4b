"""Bit-identity of the fast kernels against plain references written here.

Every comparison is ``==`` on floats and ints, never a tolerance: the
kernels must repeat the same additions and comparisons in the same order.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.games import ROOT, Allocation, Edge, GameInstance, GameKind
from coregauge.matching import greedy_allocate, integrate_matching
from coregauge.oracles import (
    agents_of,
    char_value,
    coalition_values,
    grand_matching_value,
    lazy_coalition_value,
    max_weight_matching,
)
from coregauge.rounding import breakpoints, offset_average, round_weights, rounding_exponent
from coregauge.shapley import shapley_sample

WEIGHT_POOLS = {
    "distinct": lambda rng: rng.uniform(0.0, 10.0),
    "ties": lambda rng: rng.choice([1.0, 2.0, 3.0]),
    "zeros": lambda rng: rng.choice([0.0, 0.0, 1.5, 2.5]),
    "extremes": lambda rng: rng.choice([5e-324, 1e-300, 1.0, 1e300, 1e308]),
}


def random_game(kind, n, seed, pool):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    if kind is GameKind.MIN_SPANNING_TREE:
        pairs = [(ROOT, v) for v in range(n)] + pairs
    rng.shuffle(pairs)
    edges = tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs))
    return GameInstance(kind, n, edges, tuple(WEIGHT_POOLS[pool](rng) for _ in edges))


def reference_matching_table(inst, weights):
    """The subset DP filled bottom-up over every mask."""
    adj = [[] for _ in range(inst.n)]
    for e in inst.edges:
        adj[e.u].append((e.v, weights[e.id]))
        adj[e.v].append((e.u, weights[e.id]))
    values = [0] * (1 << inst.n)
    for mask in range(1, 1 << inst.n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        best = values[rest]
        for u, w in adj[v]:
            if rest >> u & 1:
                cand = w + values[rest ^ (1 << u)]
                if cand > best:
                    best = cand
        values[mask] = best
    return values


@pytest.mark.parametrize("pool", sorted(WEIGHT_POOLS))
@pytest.mark.parametrize("n", range(13))
def test_grand_matching_value_is_the_last_table_entry(n, pool):
    for seed in range(3 if n <= 10 else 1):
        inst = random_game(GameKind.MATCHING, n, seed, pool)
        ints = [int(w * 8) if w < 1e18 else 7 for w in inst.weights]
        for weights in (inst.weights, ints):
            grand = grand_matching_value(inst, weights)
            assert type(grand) is type(coalition_values(inst, weights)[-1])
            assert grand == coalition_values(inst, weights)[-1] == reference_matching_table(inst, weights)[-1]
        assert max_weight_matching(inst, range(n)) == float(coalition_values(inst, inst.weights)[-1])


def test_max_weight_matching_of_a_subset_is_its_renumbered_table_entry():
    inst = random_game(GameKind.MATCHING, 9, 4, "ties")
    for members in ([], [3], [0, 2, 5, 8], list(range(1, 9, 2)), list(range(9))):
        local = {v: i for i, v in enumerate(members)}
        kept = [e for e in inst.edges if e.u in local and e.v in local]
        sub = GameInstance(
            GameKind.MATCHING,
            len(members),
            tuple(Edge(i, local[e.u], local[e.v]) for i, e in enumerate(kept)),
            tuple(inst.weights[e.id] for e in kept),
        )
        assert max_weight_matching(inst, members) == coalition_values(sub, sub.weights)[-1]


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("pool", sorted(WEIGHT_POOLS))
@pytest.mark.parametrize("n", range(9))
def test_every_mask_of_the_single_value_driver_is_its_table_entry(n, pool, kind):
    inst = random_game(kind, n, n, pool)
    ints = [int(w * 8) if w < 1e18 else 7 for w in inst.weights]
    for weights in (inst.weights, ints):
        table = coalition_values(inst, weights)
        value = lazy_coalition_value(inst, weights)
        for mask in random.Random(n).sample(range(1 << n), 1 << n):  # masks in any order
            assert type(value(mask)) is type(table[mask]) and value(mask) == table[mask]
            if kind is GameKind.MATCHING and weights is inst.weights:
                assert max_weight_matching(inst, agents_of(mask)) == table[mask]


def reference_shapley_sample(inst, permutations, seed):
    """Seeded orderings, each prefix valued by ``char_value`` once and kept
    in a dict; marginals summed scaled by the sampler's power of two."""
    rng = np.random.default_rng(seed)
    acc = np.zeros(inst.n)
    e = math.frexp(max(inst.weights, default=0.0))[1]
    shift = max(0, e + inst.m.bit_length() + permutations.bit_length() + 1 - 1024)
    cache = {0: 0.0}
    for _ in range(permutations):
        mask, prev = 0, 0.0
        for v in rng.permutation(inst.n):
            mask |= 1 << int(v)
            if mask not in cache:
                cache[mask] = char_value(inst, agents_of(mask))
            acc[v] += math.ldexp(cache[mask] - prev, -shift)
            prev = cache[mask]
    return Allocation.of(np.ldexp(acc / permutations, shift))


def sample_outcome(call):
    try:
        return [x.hex() for x in call().values]
    except ValueError as exc:  # a share past the float range
        return str(exc)


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("pool", sorted(WEIGHT_POOLS))
def test_shapley_sample_is_the_per_prefix_reference(pool, kind):
    for n in (1, 5, 8):
        inst = random_game(kind, n, n, pool)
        with np.errstate(invalid="ignore", over="ignore"):  # extremes may sum past the float range
            got = sample_outcome(lambda: shapley_sample(inst, 300, n))
            assert got == sample_outcome(lambda: reference_shapley_sample(inst, 300, n))


def reference_kruskal(inst, weights, smask):
    """Kruskal on G[S + root] with edges sorted by (weight, id), a plain
    union-find, and the tree edges summed in the order they are taken."""
    n = inst.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    total = 0
    for eid in sorted(range(inst.m), key=lambda eid: (weights[eid], eid)):
        a, b = (n if x == ROOT else x for x in (inst.edges[eid].u, inst.edges[eid].v))
        if smask >> a & 1 or a == n:
            if smask >> b & 1 or b == n:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
                    total = total + weights[eid]
    return total


@pytest.mark.parametrize("pool", sorted(WEIGHT_POOLS))
@pytest.mark.parametrize("n", range(9))
def test_tree_table_is_a_plain_kruskal_per_mask(n, pool):
    for seed in range(2):
        inst = random_game(GameKind.MIN_SPANNING_TREE, n, seed, pool)
        ints = [int(w * 8) if w < 1e18 else 7 for w in inst.weights]
        for weights in (inst.weights, ints):
            table = coalition_values(inst, weights)
            want = [reference_kruskal(inst, weights, smask) for smask in range(1 << n)]
            assert [type(v) for v in table] == [type(v) for v in want]
            assert table == want


def reference_greedy(inst, rounded):
    """Greedy matching by the key (-rounded weight, id); both ends of a
    matched edge get its rounded weight."""
    ranked = sorted((eid for eid in range(inst.m) if rounded[eid] > 0), key=lambda eid: (-rounded[eid], eid))
    raw, matched = [0.0] * inst.n, []
    for eid in ranked:
        e = inst.edges[eid]
        if not raw[e.u] and not raw[e.v]:
            matched.append(eid)
            raw[e.u] = raw[e.v] = rounded[eid]
    return tuple(matched), tuple(raw)


@pytest.mark.parametrize("seed", range(20))
def test_greedy_scans_heavier_edges_first_and_ties_by_id(seed):
    inst = random_game(GameKind.MATCHING, 8, seed, "ties" if seed % 2 else "zeros")
    for b in (0.0, 0.3, 1.0):
        trace = greedy_allocate(inst, inst.weights, b, 2.0)
        assert (trace.matching, trace.raw) == reference_greedy(inst, round_weights(inst.weights, b, 2.0))


def reference_offset_average(schedule, rule):
    total = None
    for lo, hi in schedule.intervals():
        mid = (lo + hi) / 2.0
        factor = (schedule.base ** (hi - mid) - schedule.base ** (lo - mid)) / math.log(schedule.base)
        part = [x * factor for x in rule(round_weights(schedule.weights, mid, schedule.base))]
        total = part if total is None else [t + x for t, x in zip(total, part)]
    return tuple(total or [])


@pytest.mark.parametrize("base", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("pool", sorted(WEIGHT_POOLS))
def test_offset_average_rounds_each_interval_as_the_schedule_does(pool, base):
    for seed in range(6):
        inst = random_game(GameKind.MATCHING, 7, seed, pool)
        weights = [min(w, 1e300) for w in inst.weights]
        schedule = breakpoints(weights, base)
        want = reference_offset_average(schedule, lambda rounded: reference_greedy(inst, rounded)[1])
        assert offset_average(schedule, lambda rounded: reference_greedy(inst, rounded)[1]).values == want
        assert integrate_matching(inst, weights, base).values == want


def rounding_outcome(call):
    try:
        return call()
    except ValueError as exc:
        return "ValueError", str(exc)


def defined_rounding(weights, b, base):
    """The rounding by its definition: base**(i + 1 + b) at each positive
    weight's ``rounding_exponent`` i, and 0.0 for a zero weight. It raises
    for a bad base, then for the first negative weight, then for a bad
    offset, and otherwise exactly when some base**(i + 1 + b) is past the
    float range."""
    if not 1.0 < base <= 2.0:
        raise ValueError(f"base must lie in (1, 2], got {base}")
    for w in weights:
        if w < 0:
            raise ValueError(f"negative weight {w}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"offset must lie in [0, 1], got {b}")
    try:
        return tuple(base ** (rounding_exponent(w, b, base) + 1 + b) if w else 0.0 for w in weights)
    except OverflowError:
        raise ValueError("a rounded weight exceeds the float range") from None


WEIGHTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2e-308, 1.0, 3.0, 1e300, 1e308, 1.7e308, sys.float_info.max, -1.0]),
    st.floats(0.0, sys.float_info.max),
)


@given(
    weights=st.lists(WEIGHTS, max_size=8),
    b=st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.25, 1.5]), st.floats(0.0, 1.0)),
    base=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 2.5]), st.floats(1.01, 2.0)),
)
@settings(max_examples=300, deadline=None)
def test_round_weights_is_the_defining_rounding(weights, b, base):
    direct = rounding_outcome(lambda: round_weights(weights, b, base))
    assert direct == rounding_outcome(lambda: defined_rounding(weights, b, base))


def power_or_inf(base, x):
    try:
        return base**x
    except OverflowError:
        return math.inf


@given(
    weights=st.lists(WEIGHTS.filter(lambda w: w >= 0), max_size=8),
    b=st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.floats(0.0, 1.0)),
    base=st.one_of(st.sampled_from([1.1, 1.5, 2.0]), st.floats(1.01, 2.0)),
)
@settings(max_examples=300, deadline=None)
def test_rounding_raises_no_overflow_error_on_finite_weights(weights, b, base):
    # a power past the float range counts as above every finite weight; only
    # a rounded weight past the range is refused, and with a ValueError
    for w in weights:
        if w:
            i = rounding_exponent(w, b, base)
            assert base ** (i + b) <= w < power_or_inf(base, i + 1 + b)
    breakpoints(weights, base)
    try:
        round_weights(weights, b, base)
    except ValueError as exc:
        assert str(exc) == "a rounded weight exceeds the float range"
