import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.games import ROOT, GameKind, perturb
from coregauge.instances import gen_path_uniform, gen_random
from coregauge.matching import matching_core_allocate
from coregauge.oracles import (
    agents_of,
    char_table,
    char_value,
    marginal_monotonicity_check,
    mask_of,
    max_weight_matching,
    mst_weight,
)

from conftest import brute_max_matching, brute_mst, matching_instance, mst_instance

TRIANGLE = matching_instance(3, [(0, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0)])
MST3 = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])


def test_path5_grand_matching_value():
    assert max_weight_matching(gen_path_uniform(5), range(5)) == 2.0


def test_triangle_matches_brute_force():
    assert max_weight_matching(TRIANGLE, range(3)) == brute_max_matching(TRIANGLE, range(3)) == 5.0


def test_tiny_subsets_have_no_matching():
    assert max_weight_matching(TRIANGLE, []) == 0.0
    assert max_weight_matching(TRIANGLE, [1]) == 0.0


def test_matching_oracle_rejects_wrong_kind():
    with pytest.raises(ValueError):
        max_weight_matching(MST3, [0])


def test_mst_weight_examples():
    assert mst_weight(MST3, []) == 0.0
    assert mst_weight(MST3, [0, 1]) == brute_mst(MST3, [0, 1]) == 3.0
    assert mst_weight(MST3, [0]) == 1.0
    assert mst_weight(MST3, [1]) == 4.0


def test_mst_oracle_rejects_wrong_kind():
    with pytest.raises(ValueError):
        mst_weight(TRIANGLE, [0])


def test_mst_oracle_refuses_a_coalition_the_supply_cannot_reach():
    unreached = mst_instance(2, [(ROOT, 0, 1.0)])  # agent 1 has no edge
    assert mst_weight(unreached, [0]) == 1.0
    with pytest.raises(ValueError, match="^induced subgraph is not connected through the root$"):
        mst_weight(unreached, [1])


def test_oracles_refuse_non_agent_ids():
    with pytest.raises(ValueError, match="non-agent ids"):
        max_weight_matching(TRIANGLE, [0, 99])
    with pytest.raises(ValueError, match="non-agent ids"):
        mst_weight(MST3, [99])


def test_char_value_dispatch():
    assert char_value(TRIANGLE, []) == 0.0
    path5 = gen_path_uniform(5)
    assert char_value(path5, [2, 3]) == 1.0
    assert char_value(MST3, [0]) == 1.0


def test_char_table_n1_matching():
    inst = matching_instance(1, [])
    table = char_table(inst)
    assert list(table.values) == [0.0, 0.0]


def test_char_table_mst_three_vertices():
    table = char_table(MST3)
    assert list(table.values) == [0.0, 1.0, 4.0, 3.0]


def test_char_table_triangle_pairs():
    table = char_table(TRIANGLE)
    assert table.values[mask_of([0, 1], 3)] == 3.0
    assert table.values[mask_of([1, 2], 3)] == 4.0
    assert table.values[mask_of([0, 2], 3)] == 5.0
    assert table.grand == 5.0


def test_char_table_refuses_oversized_instances():
    big = matching_instance(21, [])
    with pytest.raises(ValueError):
        char_table(big)


def test_matching_oracles_enumerate_at_most_twenty_agents():
    wide = matching_instance(100, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match="limited to 20 agents"):
        max_weight_matching(wide, range(100))
    with pytest.raises(ValueError, match="limited to 20 agents"):
        max_weight_matching(wide, range(21))
    assert max_weight_matching(wide, [0, 1]) == 1.0
    wide = matching_instance(21, [(0, 1, 1.0), (19, 20, 2.0)])
    message = "coalition enumeration is limited to 20 agents, got 21"
    with pytest.raises(ValueError, match=message):
        max_weight_matching(wide, range(21))
    with pytest.raises(ValueError, match=message):
        matching_core_allocate(wide, wide.weights, 0.25)
    assert max_weight_matching(wide, range(20)) == 1.0


def test_mask_round_trip():
    assert agents_of(mask_of([0, 3, 5], 6)) == (0, 3, 5)
    assert mask_of(agents_of(0b1011), 4) == 0b1011


@pytest.mark.parametrize("seed", range(8))
def test_matching_oracle_agrees_with_brute_force_on_random_graphs(seed):
    inst = gen_random(GameKind.MATCHING, 5, 0.7, 10.0, seed)
    for smask in range(1 << inst.n):
        S = agents_of(smask)
        assert max_weight_matching(inst, S) == pytest.approx(brute_max_matching(inst, S), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_mst_oracle_agrees_with_brute_force_on_random_graphs(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 4, 0.6, 10.0, seed)
    for smask in range(1, 1 << inst.n):
        S = agents_of(smask)
        assert mst_weight(inst, S) == pytest.approx(brute_mst(inst, S), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_matching_values_are_monotone_under_inclusion(seed):
    inst = gen_random(GameKind.MATCHING, 6, 0.5, 10.0, seed)
    table = char_table(inst)
    for mask in range(1 << inst.n):
        for v in range(inst.n):
            bit = 1 << v
            if not mask & bit:
                assert table.values[mask | bit] >= table.values[mask] - 1e-12


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=25, deadline=None)
def test_grand_value_is_one_lipschitz_in_the_weights(kind, seed, data):
    inst = gen_random(kind, 5, 0.6, 10.0, seed)
    other = tuple(
        data.draw(st.floats(0, 12, allow_nan=False), label=f"w{e}") for e in range(inst.m)
    )
    v1 = char_value(inst, range(inst.n))
    v2 = char_value(inst.with_weights(other), range(inst.n))
    gap = math.fsum(abs(a - b) for a, b in zip(inst.weights, other))
    assert abs(v1 - v2) <= gap + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_mst_star_upper_bound(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.5, 10.0, seed)
    root_w = {e.u if e.v == ROOT else e.v: inst.weights[e.id] for e in inst.edges if ROOT in (e.u, e.v)}
    for smask in range(1, 1 << inst.n):
        S = agents_of(smask)
        assert mst_weight(inst, S) <= math.fsum(root_w[v] for v in S) + 1e-12


def test_monotonicity_check_trivial_zero_left_side():
    # f is the heaviest edge, never in any spanning tree that can avoid it
    inst = mst_instance(3, [(ROOT, 0, 1.0), (ROOT, 1, 1.0), (ROOT, 2, 1.0), (0, 1, 50.0)])
    assert marginal_monotonicity_check(inst, 3, 5.0, 2, [0, 1])


@pytest.mark.parametrize("seed", range(12))
def test_monotonicity_check_exhaustive_on_small_instances(seed):
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 4, 0.8, 8.0, seed)
    for e in inst.edges:
        if ROOT in (e.u, e.v):
            continue
        base = {e.u, e.v}
        for smask in range(1 << inst.n):
            S = set(agents_of(smask))
            if not base <= S:
                continue
            for v in range(inst.n):
                if v in S:
                    continue
                for delta in (inst.weights[e.id] or 1.0, 0.37):
                    assert marginal_monotonicity_check(inst, e.id, delta, v, S)


def test_monotonicity_check_rejects_bad_arguments():
    inst = mst_instance(3, [(ROOT, 0, 1.0), (ROOT, 1, 1.0), (ROOT, 2, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError):
        marginal_monotonicity_check(inst, 3, 1.0, 0, [0, 1])  # v inside S
    with pytest.raises(ValueError):
        marginal_monotonicity_check(inst, 3, 1.0, 2, [0])  # endpoint outside S
    with pytest.raises(ValueError):
        marginal_monotonicity_check(inst, 3, -1.0, 2, [0, 1])  # bad delta
    with pytest.raises(ValueError):
        marginal_monotonicity_check(gen_path_uniform(3), 0, 1.0, 2, [0, 1])  # wrong kind


@pytest.mark.parametrize("seed", range(5))
def test_perturbed_grand_values_stay_close(seed):
    inst = gen_random(GameKind.MATCHING, 6, 0.5, 10.0, seed)
    if inst.m == 0:
        pytest.skip("empty graph drawn")
    before = char_value(inst, range(inst.n))
    after = char_value(inst.with_weights(perturb(inst.weights, 0, 0.5)), range(inst.n))
    assert 0 <= after - before + 1e-12 and after - before <= 0.5 + 1e-12
