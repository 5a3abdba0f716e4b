import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coregauge.games import GameKind, ROOT, l1_distance, perturb
from coregauge.instances import gen_path_pair_bumped, gen_random
from coregauge.oracles import char_value
from coregauge.shapley import (
    matching_lower_bound_value,
    shapley_exact,
    shapley_sample,
)

from conftest import brute_shapley, matching_instance, mst_instance


def test_single_edge_splits_evenly():
    inst = matching_instance(2, [(0, 1, 3.0)])
    assert shapley_exact(inst).values == pytest.approx((1.5, 1.5))


def test_weighted_path_matches_permutation_enumeration():
    inst = matching_instance(3, [(0, 1, 2.0), (1, 2, 1.0)])
    result = shapley_exact(inst)
    assert result.values == pytest.approx((2 / 3, 7 / 6, 1 / 6))
    assert result.values == pytest.approx(brute_shapley(inst, char_value))


def test_no_agents_get_the_empty_allocation():
    assert shapley_exact(matching_instance(0, [])).values == ()


def test_single_agent_mst_gets_its_root_edge():
    inst = mst_instance(1, [(ROOT, 0, 2.5)])
    assert shapley_exact(inst).values == (2.5,)


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("seed", range(4))
def test_exact_matches_permutation_enumeration_on_random_instances(kind, seed):
    inst = gen_random(kind, 5, 0.6, 10.0, seed)
    assert shapley_exact(inst).values == pytest.approx(brute_shapley(inst, char_value), abs=1e-9)


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("seed", range(4))
def test_efficiency(kind, seed):
    inst = gen_random(kind, 6, 0.5, 10.0, seed)
    result = shapley_exact(inst)
    assert result.total() == pytest.approx(char_value(inst, range(inst.n)), abs=1e-9)


def test_symmetric_agents_get_equal_values():
    # a 4-cycle with uniform weights: all agents interchangeable
    inst = matching_instance(4, [(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (0, 3, 2.0)])
    values = shapley_exact(inst).values
    assert max(values) - min(values) <= 1e-12


def test_dummy_agent_gets_zero():
    inst = matching_instance(3, [(0, 1, 5.0)])
    assert shapley_exact(inst).values[2] == 0.0


def test_exact_refuses_large_instances():
    with pytest.raises(ValueError):
        shapley_exact(matching_instance(15, []))


def test_subset_coefficients_match_integer_factorials():
    # the float coefficients used by the exact method, recomputed exactly
    for n in (3, 8, 14):
        for k in range(n):
            as_float = math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n)
            exact = Fraction(math.factorial(k)) * math.factorial(n - 1 - k) / math.factorial(n)
            assert abs(as_float - float(exact)) <= 1e-11 * float(exact)


def test_sampler_converges_to_exact():
    inst = matching_instance(3, [(0, 1, 2.0), (1, 2, 1.0)])
    exact = np.asarray(shapley_exact(inst).values)
    result = shapley_sample(inst, 100_000, seed=11)
    sampled = np.asarray(result.values)
    # x_sigma coordinates live in [0, 2]; 3 sigma at 1e5 samples is generous
    assert np.all(np.abs(sampled - exact) <= 3 * 2.0 / math.sqrt(100_000) + 1e-12)


def test_sampler_single_draw_is_a_marginal_vector():
    inst = matching_instance(3, [(0, 1, 2.0), (1, 2, 1.0)])
    seed = 5
    perm = np.random.default_rng(seed).permutation(3)
    expected = [0.0] * 3
    prefix: set[int] = set()
    prev = 0.0
    for v in perm:
        prefix.add(int(v))
        cur = char_value(inst, prefix)
        expected[int(v)] = cur - prev
        prev = cur
    result = shapley_sample(inst, 1, seed=seed)
    assert result.values == pytest.approx(tuple(expected))


@pytest.mark.parametrize("seed", range(3))
def test_sampler_efficiency_holds_per_sample(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.5, 10.0, seed)
    grand = char_value(inst, range(inst.n))
    for k in (1, 7):
        result = shapley_sample(inst, k, seed=seed)
        assert result.total() == pytest.approx(grand, abs=1e-9)


@pytest.mark.parametrize(
    "inst",
    [
        matching_instance(2, [(0, 1, 1e307)]),
        mst_instance(3, [(ROOT, v, 1e307) for v in range(3)] + [(0, 1, 1e307)]),
    ],
    ids=["matching", "tree"],
)
def test_sampler_stays_finite_on_huge_weights(inst):
    # 50 orderings of marginals near 1e307 sum past the float range undivided
    grand = char_value(inst, range(inst.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = shapley_sample(inst, 50, seed=0)
    assert all(math.isfinite(x) for x in result.values)
    assert result.total() == pytest.approx(grand, rel=1e-12)


@pytest.mark.parametrize(
    "inst",
    [
        matching_instance(2, [(0, 1, 1e-320)]),
        mst_instance(3, [(ROOT, v, 1e-320) for v in range(3)] + [(0, 1, 1e-320)]),
    ],
    ids=["matching", "tree"],
)
def test_sampler_keeps_subnormal_weights(inst):
    # a marginal of 1e-320 divided by 10,000 orderings rounds to zero, so
    # the sampler must divide the sum, not each marginal
    grand = char_value(inst, range(inst.n))
    result = shapley_sample(inst, 10_000, seed=0)
    assert all(x > 0 for x in result.values)
    # each value is rounded once, by at most half a unit in the last place
    assert abs(result.total() - grand) <= inst.n * math.ulp(grand) / 2


def test_sampler_is_reproducible():
    inst = gen_random(GameKind.MATCHING, 6, 0.5, 10.0, 3)
    a = shapley_sample(inst, 500, seed=42)
    b = shapley_sample(inst, 500, seed=42)
    assert a.values == b.values


def test_lower_bound_values():
    assert matching_lower_bound_value(5, 1.0) == pytest.approx(0.2)
    assert matching_lower_bound_value(9, 0.1) == pytest.approx(0.1 * (1 / 5 + 1 / 7 + 1 / 9))
    assert matching_lower_bound_value(7, 0.0) == 0.0


def test_sampler_and_lower_bound_refuse_bad_arguments():
    with pytest.raises(ValueError, match="at least one permutation"):
        shapley_sample(matching_instance(2, [(0, 1, 1.0)]), 0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        matching_lower_bound_value(5, -1.0)


def test_lower_bound_rejects_bad_n():
    with pytest.raises(ValueError):
        matching_lower_bound_value(4, 0.1)
    with pytest.raises(ValueError):
        matching_lower_bound_value(3, 0.1)


@pytest.mark.parametrize("n", [5, 7])
def test_bumped_path_gap_meets_certified_lower_bound(n):
    delta = 0.1
    base, bumped = gen_path_pair_bumped(n, delta)
    gap = l1_distance(shapley_exact(base).values, shapley_exact(bumped).values)
    assert gap >= matching_lower_bound_value(n, delta) - 1e-9


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_bumped_path_gap_is_delta_plus_the_lower_bound_exactly(n):
    # an exact identity of the bumped path, not only a bound: the l1 gap is
    # delta plus the certified lower bound
    base = shapley_exact(gen_path_pair_bumped(n, 1.0)[0])
    for delta in (1.0, 0.5, 0.1, 1e-3):
        bumped = shapley_exact(gen_path_pair_bumped(n, delta)[1])
        gap = l1_distance(base, bumped)
        assert abs(gap - (delta + matching_lower_bound_value(n, delta))) <= 1e-12, (delta, gap)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_bumped_path_per_coordinate_gaps(n):
    # agents here are 0-based; the moving coordinates are the 1-based even
    # positions 4, 6, ... below n. The guaranteed motion per coordinate is
    # delta/(i(i+1)): the bump shows up exactly when the whole prefix
    # arrives before agent i and its right neighbor after it.
    delta = 0.1
    base, bumped = gen_path_pair_bumped(n, delta)
    s1 = shapley_exact(base).values
    s2 = shapley_exact(bumped).values
    for i in range(4, n, 2):
        assert abs(s1[i - 1] - s2[i - 1]) >= delta / (i * (i + 1)) - 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_mst_shapley_two_delta_sensitivity(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.5, 10.0, seed)
    base = shapley_exact(inst).values
    for e in inst.edges:
        w_f = inst.weights[e.id]
        for delta in (w_f, w_f / 100):
            bumped = shapley_exact(inst.with_weights(perturb(inst.weights, e.id, delta)))
            assert l1_distance(base, bumped.values) <= 2 * delta + 1e-9
