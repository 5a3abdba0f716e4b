"""Acceptance gate: one test per criterion, stated tolerances pinned.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s or in
the -rA summary). Corpora are seeded and shared across criteria; the
integral-exactness check deliberately re-runs the fixed-offset
allocators per sampled offset instead of touching the closed forms.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coregauge.analysis import core_check, exact_core_solve, lipschitz_scan, named_allocator
from coregauge.games import GameKind, l1_distance, perturb
from coregauge.matching import matching_core_allocate
from coregauge.mst import mst_core_allocate
from coregauge.instances import gen_path_pair_bumped, gen_path_pair_zero_ends, gen_random
from coregauge.matching import greedy_allocate, integrate_matching
from coregauge.rounding import breakpoints, round_weights
from coregauge.mst import integrate_mst, mst_allocate
from coregauge.oracles import char_table
from coregauge.rounding import differing_offset_measure
from coregauge.shapley import matching_lower_bound_value, shapley_exact

from mc_oracle import mc_matching_samples, mc_mean_and_se, mc_mst_samples

EPSILONS = (0.05, 0.25, 0.5)
BASES = (1.1, 1.5, 2.0)
MC_SAMPLES = 100_000


@contextmanager
def report(line: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {line}", flush=True)
        raise
    print(f"[PASS] criterion {line}", flush=True)


def _corpus(kind: GameKind, count: int, max_n: int, probs, seed0: int):
    out = []
    min_n = 2 if kind is GameKind.MATCHING else 1
    for i in range(count):
        n = min_n + i % (max_n - min_n + 1)
        out.append(gen_random(kind, n, probs[i % len(probs)], 10.0, seed0 + i))
    return out


@pytest.fixture(scope="module")
def matching_corpus():
    return _corpus(GameKind.MATCHING, 200, 10, (0.3, 0.5, 0.8), 10_000)


@pytest.fixture(scope="module")
def mst_corpus():
    return _corpus(GameKind.MIN_SPANNING_TREE, 200, 9, (0.2, 0.4, 0.7), 20_000)


@pytest.fixture(scope="module")
def matching_probe_corpus():
    return _corpus(GameKind.MATCHING, 50, 8, (0.3, 0.6), 30_000)


@pytest.fixture(scope="module")
def mst_probe_corpus():
    return _corpus(GameKind.MIN_SPANNING_TREE, 50, 8, (0.3, 0.6), 40_000)


def test_c01_matching_core_approximability(matching_corpus):
    with report("1: matching allocations stay in the (1/2 - eps)-core, 200 instances x 3 eps, <60s"):
        t0 = time.perf_counter()
        for inst in matching_corpus:
            table = char_table(inst)
            for eps in EPSILONS:
                x = matching_core_allocate(inst, inst.weights, eps)
                rep = core_check(inst, x, 0.5 - eps, tol=1e-6, grand_tol=1e-9, table=table)
                assert rep.passed, (inst, eps, rep)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_mst_core_approximability(mst_corpus):
    with report("2: spanning-tree allocations stay in the 4-core, 200 instances, <60s"):
        t0 = time.perf_counter()
        for inst in mst_corpus:
            x = mst_core_allocate(inst, inst.weights)
            rep = core_check(inst, x, 4.0, tol=1e-6, grand_tol=1e-9)
            assert rep.passed, (inst, rep)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c03_raw_matching_sensitivity(matching_probe_corpus):
    with report("3: unnormalized matching integral moves at most 12/(base-1) per unit bump"):
        for base in BASES:
            bound = 12.0 / (base - 1.0)
            fn = named_allocator("matching-raw", base=base)
            for inst in matching_probe_corpus:
                rep = lipschitz_scan(fn, inst, bound, name="matching-raw", tol=1e-6)
                assert rep.passed, (base, inst, rep.max_ratio)


def test_c04_raw_mst_sensitivity(mst_probe_corpus):
    with report("4: unnormalized spanning-tree integral moves at most 10/ln2 per unit bump"):
        bound = 10.0 / math.log(2.0)
        fn = named_allocator("mst-raw")
        for inst in mst_probe_corpus:
            rep = lipschitz_scan(fn, inst, bound, name="mst-raw", tol=1e-6)
            assert rep.passed, (inst, rep.max_ratio)


def test_c05_end_to_end_sensitivity(matching_probe_corpus, mst_probe_corpus):
    with report("5: normalized allocators stay under 24/(base-1)+1 and 20/ln2+1"):
        for base in BASES:
            eps = (base - 1.0) / 2.0
            bound = 24.0 / (base - 1.0) + 1.0
            fn = named_allocator("matching-core", epsilon=eps)
            for inst in matching_probe_corpus:
                rep = lipschitz_scan(fn, inst, bound, name="matching-core", tol=1e-6)
                assert rep.passed, (base, inst, rep.max_ratio)
        bound = 20.0 / math.log(2.0) + 1.0
        fn = named_allocator("mst-core")
        for inst in mst_probe_corpus:
            rep = lipschitz_scan(fn, inst, bound, name="mst-core", tol=1e-6)
            assert rep.passed, (inst, rep.max_ratio)


def _check_interval_scaling(decomp_points, alloc, base, rng):
    points = list(decomp_points)
    for lo, hi in zip(points, points[1:]):
        span = hi - lo
        for _ in range(10):
            u1, u2 = rng.uniform(0.005, 0.995, size=2)
            b1, b2 = lo + span * min(u1, u2), lo + span * max(u1, u2)
            z1 = alloc(b1)
            z2 = alloc(b2)
            np.testing.assert_allclose(z2, base ** (b2 - b1) * z1, rtol=1e-12, atol=0)


def test_c06_integral_exactness(matching_corpus, mst_corpus):
    with report("6: closed-form integrals match 1e5-sample offset averages and in-interval scaling"):
        for i, inst in enumerate(matching_corpus):
            base = BASES[i % len(BASES)]
            closed = integrate_matching(inst, inst.weights, base).as_array()
            mean, se = mc_mean_and_se(
                mc_matching_samples(inst, inst.weights, base, MC_SAMPLES, 70_000 + i)
            )
            assert np.all(np.abs(closed - mean) <= 3.0 * se + 1e-12), (i, inst)
            rng = np.random.default_rng(90_000 + i)
            _check_interval_scaling(
                breakpoints(inst.weights, base).points,
                lambda b: np.asarray(greedy_allocate(inst, inst.weights, b, base).raw),
                base,
                rng,
            )
        for i, inst in enumerate(mst_corpus):
            closed = integrate_mst(inst, inst.weights).as_array()
            mean, se = mc_mean_and_se(mc_mst_samples(inst, inst.weights, MC_SAMPLES, 80_000 + i))
            assert np.all(np.abs(closed - mean) <= 3.0 * se + 1e-12), (i, inst)
            rng = np.random.default_rng(95_000 + i)
            _check_interval_scaling(
                breakpoints(inst.weights, 2.0).points,
                lambda b: mst_allocate(inst, inst.weights, b).as_array(),
                2.0,
                rng,
            )


def test_c07_mst_shapley_two_delta_bound():
    with report("7: spanning-tree Shapley moves at most 2*delta per single-edge bump"):
        corpus = _corpus(GameKind.MIN_SPANNING_TREE, 100, 6, (0.3, 0.6, 0.9), 50_000)
        for inst in corpus:
            base_values = shapley_exact(inst).values
            for e in inst.edges:
                w_f = inst.weights[e.id]
                for delta in (w_f, w_f / 10.0, w_f / 100.0):
                    bumped = inst.with_weights(perturb(inst.weights, e.id, delta))
                    moved = shapley_exact(bumped).values
                    assert l1_distance(base_values, moved) <= 2.0 * delta + 1e-9, (
                        inst,
                        e.id,
                        delta,
                    )


def test_c08_matching_shapley_lower_bound():
    with report("8: bumped-path Shapley gap certified below, totals and per-coordinate"):
        delta = 0.1
        assert matching_lower_bound_value(9, delta) == pytest.approx(0.04540, abs=5e-6)
        per_coordinate_failures = []
        for n in (5, 7, 9):
            base, bumped = gen_path_pair_bumped(n, delta)
            s1 = shapley_exact(base).values
            s2 = shapley_exact(bumped).values
            gap = l1_distance(s1, s2)
            assert gap >= matching_lower_bound_value(n, delta) - 1e-9, (n, gap)
            for i in range(4, n, 2):  # 1-based even positions 4..n-1
                observed = abs(s1[i - 1] - s2[i - 1])
                if observed < delta / (i + 1) - 1e-9:
                    per_coordinate_failures.append((n, i, observed, delta / (i + 1)))
        assert not per_coordinate_failures, (
            "per-coordinate clause |ds_i| >= delta/(i+1) fails; exact enumeration gives "
            "delta * sum_k 1/((i+2k)(i+2k+1)) instead (e.g. delta/20 at n=5, i=4): "
            f"{per_coordinate_failures}"
        )


def test_c09_unique_core_points_and_selection_jump():
    with report("9: zeroed-ends path pair has unique far-apart core points, ratio (n-2)/2"):
        base5, zeroed5 = gen_path_pair_zero_ends(5)
        x = exact_core_solve(base5)
        xp = exact_core_solve(zeroed5)
        assert x.values == (0.0, 1.0, 0.0, 1.0, 0.0)
        assert xp.values == (0.0, 0.0, 1.0, 0.0, 0.0)
        assert l1_distance(x, xp) / 2.0 == pytest.approx(1.5, abs=1e-12)
        ratios = {}
        for n in (7, 9, 11):
            b, z = gen_path_pair_zero_ends(n)
            ratios[n] = l1_distance(exact_core_solve(b), exact_core_solve(z)) / 2.0
            assert ratios[n] == pytest.approx((n - 2) / 2.0, abs=1e-12)
        # linear growth: constant increment of 1 per step of 2 in n
        assert ratios[9] - ratios[7] == pytest.approx(1.0, abs=1e-12)
        assert ratios[11] - ratios[9] == pytest.approx(1.0, abs=1e-12)


def test_c10_connector_identity():
    from coregauge.mst import auxiliary_tree, connector_sum
    from coregauge.oracles import agents_of, mst_weight

    with report("10: connector sums equal the rounded tree cost at V, bound it below elsewhere"):
        corpus = _corpus(GameKind.MIN_SPANNING_TREE, 100, 8, (0.3, 0.6), 60_000)
        for inst in corpus:
            for mid in breakpoints(inst.weights, 2.0).midpoints():
                rounded = round_weights(inst.weights, mid, 2.0)
                tree = auxiliary_tree(inst, rounded)
                on_rounded = inst.with_weights(rounded)
                full = mst_weight(on_rounded, range(inst.n))
                assert abs(connector_sum(tree, range(inst.n)) - full) <= 1e-9, (inst, mid)
                for smask in range(1, 1 << inst.n):
                    S = agents_of(smask)
                    assert connector_sum(tree, S) <= mst_weight(on_rounded, S) + 1e-9, (
                        inst,
                        mid,
                        S,
                    )


def test_c11_fixed_offset_difference_bounds(matching_probe_corpus, mst_probe_corpus):
    with report("11: fixed-offset outputs move at most 2w'_f (matching) / w_f+2w'_f (trees)"):
        rng = np.random.default_rng(123)
        base = 1.5
        for inst in matching_probe_corpus:
            for e in inst.edges:
                w_f = inst.weights[e.id]
                delta = w_f / 10.0
                bumped = perturb(inst.weights, e.id, delta)
                for b in rng.uniform(0.0, 1.0, size=5):
                    r1 = round_weights(inst.weights, b, base)[e.id]
                    r2 = round_weights(bumped, b, base)[e.id]
                    z1 = greedy_allocate(inst, inst.weights, b, base).raw
                    z2 = greedy_allocate(inst, bumped, b, base).raw
                    if r1 == r2:
                        assert z1 == z2
                    else:
                        assert l1_distance(z1, z2) <= 2.0 * r2 + 1e-9
        for inst in mst_probe_corpus:
            for e in inst.edges:
                w_f = inst.weights[e.id]
                delta = w_f / 10.0
                bumped = perturb(inst.weights, e.id, delta)
                for b in rng.uniform(0.0, 1.0, size=5):
                    r1 = round_weights(inst.weights, b, 2.0)[e.id]
                    r2 = round_weights(bumped, b, 2.0)[e.id]
                    z1 = mst_allocate(inst, inst.weights, b)
                    z2 = mst_allocate(inst, bumped, b)
                    if r1 == r2:
                        assert z1.values == z2.values
                    else:
                        assert l1_distance(z1, z2) <= r1 + 2.0 * r2 + 1e-9


def test_c12_bad_offset_measure(matching_probe_corpus):
    with report("12: offsets where one bumped edge rounds differently total log_base(1+delta/w)"):
        for base in BASES:
            for inst in matching_probe_corpus[:20]:
                for e in inst.edges:
                    w_f = inst.weights[e.id]
                    for k in (1, 2, 3):
                        delta = w_f * 10.0**-k
                        measured = differing_offset_measure(w_f, w_f + delta, base)
                        expected = math.log(1.0 + delta / w_f) / math.log(base)
                        assert abs(measured - expected) <= 1e-9, (base, w_f, delta)
