import pytest

from coregauge.games import ROOT, GameKind, validate_instance
from coregauge.instances import (
    gen_path_pair_bumped,
    gen_path_pair_zero_ends,
    gen_path_uniform,
    gen_random,
)


def test_path_examples():
    inst = gen_path_uniform(5)
    assert inst.m == 4 and set(inst.weights) == {1.0}
    assert gen_path_uniform(2).m == 1
    assert gen_path_uniform(3).m == 2
    with pytest.raises(ValueError):
        gen_path_uniform(1)


def test_zero_ends_pair():
    base, zeroed = gen_path_pair_zero_ends(5)
    assert zeroed.weights == (0.0, 1.0, 1.0, 0.0)
    assert sum(abs(a - b) for a, b in zip(base.weights, zeroed.weights)) == 2.0
    _, zeroed7 = gen_path_pair_zero_ends(7)
    assert zeroed7.weights == (0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gen_path_pair_zero_ends(6)


def test_bumped_pair():
    base, bumped = gen_path_pair_bumped(5, 0.1)
    assert bumped.weights == (1.0, 1.1, 1.0, 1.0)
    assert sum(abs(a - b) for a, b in zip(base.weights, bumped.weights)) == pytest.approx(0.1)
    _, bumped9 = gen_path_pair_bumped(9, 0.1)
    assert bumped9.weights[1] == 1.1 and set(bumped9.weights[2:]) == {1.0}
    with pytest.raises(ValueError):
        gen_path_pair_bumped(5, 0.0)
    with pytest.raises(ValueError, match="odd"):
        gen_path_pair_bumped(6, 0.1)


def test_pairs_differ_only_in_documented_coordinates():
    base, zeroed = gen_path_pair_zero_ends(9)
    diffs = [i for i, (a, b) in enumerate(zip(base.weights, zeroed.weights)) if a != b]
    assert diffs == [0, 7]
    base, bumped = gen_path_pair_bumped(9, 0.25)
    diffs = [i for i, (a, b) in enumerate(zip(base.weights, bumped.weights)) if a != b]
    assert diffs == [1]


def test_random_is_deterministic_per_seed():
    a = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, 99)
    b = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, 99)
    assert a == b
    c = gen_random(GameKind.MATCHING, 8, 0.5, 10.0, 100)
    assert a != c


def test_random_mst_zero_prob_is_a_star():
    inst = gen_random(GameKind.MIN_SPANNING_TREE, 5, 0.0, 10.0, 7)
    assert inst.m == 5
    assert all(ROOT in (e.u, e.v) for e in inst.edges)


def test_random_matching_full_prob_is_complete():
    inst = gen_random(GameKind.MATCHING, 4, 1.0, 10.0, 7)
    assert inst.m == 6


def test_random_refuses_bad_arguments():
    with pytest.raises(ValueError, match="at least one agent"):
        gen_random(GameKind.MATCHING, 0, 0.5, 10.0, 1)
    with pytest.raises(ValueError, match="edge_prob"):
        gen_random(GameKind.MIN_SPANNING_TREE, 3, 1.5, 10.0, 1)


@pytest.mark.parametrize("kind", [GameKind.MATCHING, GameKind.MIN_SPANNING_TREE])
@pytest.mark.parametrize("seed", range(20))
def test_generated_instances_validate_with_positive_weights(kind, seed):
    inst = gen_random(kind, 1 + seed % 9, 0.4, 10.0, seed)
    assert validate_instance(inst) == ()
    assert all(0 < w <= 10.0 for w in inst.weights)
