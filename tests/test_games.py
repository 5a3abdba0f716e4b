import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coregauge.games import (
    ROOT,
    Allocation,
    Edge,
    GameInstance,
    GameKind,
    instance_from_dict,
    instance_to_dict,
    l1_distance,
    perturb,
    validate_instance,
)

from conftest import matching_instance, mst_instance


def test_minimal_mst_instance_is_valid():
    inst = mst_instance(1, [(ROOT, 0, 1.0)])
    assert validate_instance(inst) == ()


def test_agent_missing_root_edge_is_flagged():
    inst = mst_instance(2, [(ROOT, 0, 1.0)])
    violations = validate_instance(inst)
    assert violations
    assert any("agent 1" in v and "root" in v for v in violations)


def test_agents_cut_off_from_the_root_share_one_short_message():
    # one message naming the first few, found in O(m) steps, whatever n is
    (message,) = validate_instance(GameInstance(GameKind.MIN_SPANNING_TREE, 2**40, (), ()))
    assert message == "agents 0, 1, 2, 3, 4 and 1099511627771 more are not adjacent to the root"
    inst = mst_instance(5, [(ROOT, 0, 1.0), (ROOT, 2, 1.0), (ROOT, 4, 1.0)])
    assert validate_instance(inst) == ("agents 1, 3 are not adjacent to the root",)


def test_self_loop_is_flagged():
    inst = matching_instance(2, [(0, 0, 1.0)])
    violations = validate_instance(inst)
    assert violations
    assert any("self-loop" in v for v in violations)


def test_parallel_edges_are_flagged():
    inst = matching_instance(2, [(0, 1, 1.0), (1, 0, 2.0)])
    violations = validate_instance(inst)
    assert violations
    assert any("parallel" in v for v in violations)


def test_root_endpoint_rejected_in_matching_kind():
    inst = matching_instance(2, [(ROOT, 0, 1.0)])
    assert validate_instance(inst)


def test_negative_weight_is_flagged():
    inst = matching_instance(2, [(0, 1, -0.5)])
    assert validate_instance(inst)


def test_edge_ids_must_be_positional():
    with pytest.raises(ValueError):
        GameInstance(GameKind.MATCHING, 2, (Edge(1, 0, 1),), (1.0,))


def test_l1_identity_and_swap():
    assert l1_distance(Allocation.of([1, 2]), Allocation.of([1, 2])) == 0.0
    assert l1_distance(Allocation.of([1, 0]), Allocation.of([0, 1])) == 2.0


def test_l1_between_the_two_unique_path_core_points():
    a = Allocation.of([0, 1, 0, 1, 0])
    b = Allocation.of([0, 0, 1, 0, 0])
    assert l1_distance(a, b) == 3.0


def test_l1_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        l1_distance(Allocation.of([1]), Allocation.of([1, 2]))


def test_perturb_examples():
    assert perturb((1.0, 1.0), 0, 0.5) == (1.5, 1.0)
    assert perturb((0.0, 2.0), 0, 0.1) == (0.1, 2.0)
    assert perturb((1.0, 1.0, 1.0, 1.0), 1, 0.25) == (1.0, 1.25, 1.0, 1.0)


def test_perturb_rejects_unknown_edge_and_bad_delta():
    with pytest.raises(ValueError):
        perturb((1.0,), 3, 0.1)
    with pytest.raises(ValueError):
        perturb((1.0,), 0, 0.0)


@given(
    st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.001, max_value=50, allow_nan=False),
)
def test_perturb_changes_exactly_one_coordinate(w, pos, delta):
    pos = pos % len(w)
    out = perturb(tuple(w), pos, delta)
    assert sum(1 for a, b in zip(out, w) if a != b) <= 1
    for i, (a, b) in enumerate(zip(out, w)):
        if i != pos:
            assert a == b  # bit identical
    assert out[pos] == w[pos] + delta


def test_perturb_l1_is_delta_for_dyadic_values():
    w = (0.5, 2.0, 8.0)
    out = perturb(w, 1, 0.25)
    assert math.fsum(abs(a - b) for a, b in zip(out, w)) == 0.25


coords = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=6)


@given(coords, coords.map(tuple), coords)
def test_l1_is_a_metric_on_random_triples(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = Allocation.of(a[:n]), Allocation.of(b[:n]), Allocation.of(c[:n])
    assert l1_distance(a, b) >= 0
    assert l1_distance(a, b) == l1_distance(b, a)
    assert (l1_distance(a, b) == 0) == (a.values == b.values)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9


def test_allocation_rejects_non_finite():
    with pytest.raises(ValueError):
        Allocation.of([1.0, float("nan")])


def test_instance_json_round_trip():
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
    again = instance_from_dict(instance_to_dict(inst))
    assert again == inst


def test_instance_from_dict_rejects_bad_ids():
    data = {"kind": "matching", "n": 2, "edges": [{"id": 5, "u": 0, "v": 1, "w": 1.0}]}
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_instance_from_dict_names_the_first_bad_id_only():
    edges = [{"id": i + 1, "u": 0, "v": 1, "w": 1.0} for i in range(1000)]
    with pytest.raises(ValueError) as info:
        instance_from_dict({"kind": "matching", "n": 2, "edges": edges})
    assert str(info.value) == "edge at position 0 has id 1; ids must be 0..m-1 in order"


def test_with_weights_replaces_and_validates_length():
    inst = matching_instance(2, [(0, 1, 1.0)])
    assert inst.with_weights([3.0]).weights == (3.0,)
    with pytest.raises(ValueError):
        inst.with_weights([1.0, 2.0])


def test_instance_refuses_edges_and_weights_of_different_lengths():
    with pytest.raises(ValueError, match="same length"):
        GameInstance(GameKind.MATCHING, 2, (Edge(0, 0, 1),), (1.0, 2.0))
