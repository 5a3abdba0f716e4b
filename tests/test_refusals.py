"""The front-door refusals, message for message.

Each exponential engine refuses one agent past its limit, each
kind-specific entry refuses a game of the other kind, and each entry
that takes a coalition refuses an id that is not an agent, with the
exact message the library has always given; ``games.require_kind``,
``games.refuse_past`` and ``oracles.mask_of`` are where those messages
are written.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from coregauge.analysis import core_check, exact_core_solve
from coregauge.cli import main
from coregauge.games import ROOT, Allocation, dump_instance
from coregauge.matching import greedy_allocate, integrate_matching, matching_core_allocate
from coregauge.mst import auxiliary_tree, connector_sum, integrate_mst, mst_allocate, mst_core_allocate
from coregauge.oracles import (
    char_value,
    coalition_values,
    lazy_coalition_value,
    marginal_monotonicity_check,
    mask_of,
    max_weight_matching,
    mst_weight,
)
from coregauge.shapley import shapley_exact

from conftest import matching_instance, mst_instance


def path_game(n: int):
    return matching_instance(n, [(v, v + 1, 1.0) for v in range(n - 1)])


def star_tree(n: int):
    return mst_instance(n, [(ROOT, v, 1.0 + v) for v in range(n)])


def refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("make", [path_game, star_tree], ids=["matching", "mst"])
def test_each_engine_refuses_one_agent_past_its_limit(make):
    inst = make(17)
    assert refusal(lambda: core_check(inst, Allocation.of([0.0] * 17), 1.0)) == (
        "core_check is limited to 16 agents, got 17")
    inst = make(13)
    assert refusal(lambda: exact_core_solve(inst)) == "exact_core_solve is limited to 12 agents, got 13"
    inst = make(15)
    assert refusal(lambda: shapley_exact(inst)) == "exact Shapley computation is limited to 14 agents, got 15"
    inst = make(21)
    assert refusal(lambda: coalition_values(inst, inst.weights)) == (
        "coalition enumeration is limited to 20 agents, got 21")


def test_the_matching_drivers_refuse_one_agent_past_their_limit():
    inst = path_game(21)
    message = "coalition enumeration is limited to 20 agents, got 21"
    assert refusal(lambda: lazy_coalition_value(inst, inst.weights)) == message
    assert refusal(lambda: matching_core_allocate(inst, inst.weights, 0.25)) == message


def test_each_engine_runs_at_its_limit():
    core_check(path_game(16), Allocation.of([0.5] * 16), 0.5)
    assert exact_core_solve(star_tree(12)) is not None
    assert shapley_exact(path_game(14)).n == 14
    assert lazy_coalition_value(path_game(20), path_game(20).weights)((1 << 20) - 1) == 10.0
    assert matching_core_allocate(path_game(20), path_game(20).weights, 0.25).total() == 10.0
    assert lazy_coalition_value(star_tree(21), star_tree(21).weights)((1 << 21) - 1) == sum(range(1, 22))


MATCHING_ONLY = {
    "greedy_allocate": lambda inst: greedy_allocate(inst, inst.weights, 0.5, 2.0),
    "integrate_matching": lambda inst: integrate_matching(inst, inst.weights, 2.0),
    "matching_core_allocate": lambda inst: matching_core_allocate(inst, inst.weights, 0.25),
}
TREE_ONLY = {
    "auxiliary_tree": lambda inst: auxiliary_tree(inst, inst.weights),
    "auxiliary_tree b=0.5": lambda inst: auxiliary_tree(inst, inst.weights, 0.5),
    "mst_allocate": lambda inst: mst_allocate(inst, inst.weights, 0.5),
    "integrate_mst": lambda inst: integrate_mst(inst, inst.weights),
    "mst_core_allocate": lambda inst: mst_core_allocate(inst, inst.weights),
}


@pytest.mark.parametrize("entry", sorted(MATCHING_ONLY))
def test_matching_allocators_refuse_a_tree_game(entry):
    assert refusal(lambda: MATCHING_ONLY[entry](star_tree(3))) == "this allocator requires a matching game"


@pytest.mark.parametrize("entry", sorted(TREE_ONLY))
def test_tree_allocators_refuse_a_matching_game(entry):
    assert refusal(lambda: TREE_ONLY[entry](path_game(3))) == "this allocator requires a spanning-tree game"


def test_kind_specific_oracles_name_themselves_when_refusing():
    tree, matching = star_tree(3), path_game(3)
    assert refusal(lambda: max_weight_matching(tree, [0, 1])) == "max_weight_matching requires a matching game"
    assert refusal(lambda: mst_weight(matching, [0, 1])) == "mst_weight requires a spanning-tree game"
    assert refusal(lambda: marginal_monotonicity_check(matching, 0, 1.0, 2, [0, 1])) == (
        "marginal_monotonicity_check requires a spanning-tree game")


def test_the_kind_check_comes_before_the_id_check():
    # a tree game with a non-agent id is refused for its kind first
    assert refusal(lambda: max_weight_matching(star_tree(3), [7])) == "max_weight_matching requires a matching game"
    assert refusal(lambda: mst_weight(path_game(3), [7])) == "mst_weight requires a spanning-tree game"
    assert refusal(lambda: max_weight_matching(path_game(3), [-1, 0])) == "subset [-1, 0] contains non-agent ids"


@pytest.mark.parametrize("make", [path_game, star_tree], ids=["matching", "mst"])
def test_cli_core_check_refuses_seventeen_agents_before_reading_the_allocation(tmp_path, make):
    inst_path = tmp_path / "wide.json"
    dump_instance(make(17), str(inst_path))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"allocation": {"0": 1.0}}))  # every other agent is missing
    result = CliRunner().invoke(main, ["core-check", str(inst_path), str(alloc_path), "--alpha", "1.0"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "error: core_check is limited to 16 agents, got 17\n"


N = 3
BAD_IDS = {"ROOT": ROOT, "-2": -2, "n": N, "n+3": N + 3}
# the tree adds edge 3 = (0, 1), so that the monotonicity check has an edge inside S
TREE = mst_instance(N, [(ROOT, v, 1.0 + v) for v in range(N)] + [(0, 1, 1.5)])
COALITION_ENTRIES = {
    "mask_of": lambda S: mask_of(S, N),
    "max_weight_matching": lambda S: max_weight_matching(path_game(N), S),
    "mst_weight": lambda S: mst_weight(TREE, S),
    "char_value matching": lambda S: char_value(path_game(N), S),
    "char_value mst": lambda S: char_value(TREE, S),
    "connector_sum": lambda S: connector_sum(auxiliary_tree(TREE, TREE.weights), S),
    "connector_sum b=0.5": lambda S: connector_sum(auxiliary_tree(TREE, TREE.weights, 0.5), S),
    "marginal_monotonicity_check": lambda S: marginal_monotonicity_check(TREE, 3, 1.0, 2, S),
}


@pytest.mark.parametrize("bad", sorted(BAD_IDS))
@pytest.mark.parametrize("entry", sorted(COALITION_ENTRIES))
def test_every_coalition_entry_refuses_a_non_agent_id_with_one_message(entry, bad):
    v = BAD_IDS[bad]
    expected = f"subset {sorted([0, 1, v])} contains non-agent ids"
    assert refusal(lambda: COALITION_ENTRIES[entry]([0, 1, v])) == expected
    assert refusal(lambda: COALITION_ENTRIES[entry](u for u in (v, 1, 0, 1))) == expected  # a generator, repeats


@pytest.mark.parametrize("entry", sorted(COALITION_ENTRIES))
def test_every_coalition_entry_takes_a_generator_of_agents(entry):
    assert COALITION_ENTRIES[entry](u for u in (1, 0)) == COALITION_ENTRIES[entry]([0, 1])


def test_connector_sum_refuses_the_first_id_past_the_agents():
    tree = auxiliary_tree(TREE, TREE.weights)
    assert connector_sum(tree, [0, N - 1]) > connector_sum(tree, [0])
    assert refusal(lambda: connector_sum(tree, [0, N])) == f"subset [0, {N}] contains non-agent ids"
    assert refusal(lambda: connector_sum(auxiliary_tree(star_tree(0), ()), [0])) == (
        "subset [0] contains non-agent ids")
