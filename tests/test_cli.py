import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import coregauge
from coregauge.cli import main
from coregauge.games import GameKind, dump_instance, load_instance
from coregauge.instances import gen_path_uniform, gen_random

from conftest import matching_instance, mst_instance
from coregauge.games import ROOT


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def payload_of(result):
    return json.loads(result.output.splitlines()[0])


def write_single_edge(tmp_path):
    inst = matching_instance(2, [(0, 1, 1.0)])
    path = tmp_path / "single.json"
    dump_instance(inst, str(path))
    return path


def write_mst3(tmp_path):
    inst = mst_instance(2, [(ROOT, 0, 1.0), (ROOT, 1, 4.0), (0, 1, 2.0)])
    path = tmp_path / "mst3.json"
    dump_instance(inst, str(path))
    return path


def test_allocate_single_edge(runner, tmp_path):
    path = write_single_edge(tmp_path)
    result = invoke(runner, ["allocate", str(path), "--epsilon", "0.25"])
    assert result.exit_code == 0
    payload = payload_of(result)
    assert payload["allocation"] == pytest.approx({"0": 0.5, "1": 0.5})
    assert payload["grand_value"] == 1.0
    assert payload["alpha"] == 0.25
    assert payload["lipschitz_bound"] == pytest.approx(24.0 / 0.5 + 1.0)


def test_allocate_single_agent_mst(runner, tmp_path):
    inst = mst_instance(1, [(ROOT, 0, 1.0)])
    path = tmp_path / "one.json"
    dump_instance(inst, str(path))
    result = invoke(runner, ["allocate", str(path)])
    assert result.exit_code == 0
    payload = payload_of(result)
    assert payload["allocation"]["0"] == pytest.approx(1.0)
    assert payload["grand_value"] == 1.0
    assert payload["alpha"] == 4.0
    assert payload["lipschitz_bound"] == pytest.approx(20.0 / math.log(2) + 1.0)


def test_allocate_path5_sums_to_two(runner, tmp_path):
    path = tmp_path / "p5.json"
    dump_instance(gen_path_uniform(5), str(path))
    result = invoke(runner, ["allocate", str(path), "--epsilon", "0.25"])
    payload = payload_of(result)
    assert sum(payload["allocation"].values()) == pytest.approx(2.0, abs=1e-9)


def test_allocate_requires_epsilon_for_matching(runner, tmp_path):
    path = write_single_edge(tmp_path)
    result = runner.invoke(main, ["allocate", str(path)])
    assert result.exit_code == 2


def test_allocate_rejects_out_of_range_epsilon(runner, tmp_path):
    path = write_single_edge(tmp_path)
    result = runner.invoke(main, ["allocate", str(path), "--epsilon", "0.9"])
    assert result.exit_code == 2


def test_allocate_rejects_malformed_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    result = runner.invoke(main, ["allocate", str(bad), "--epsilon", "0.25"])
    assert result.exit_code == 2


def test_allocate_rejects_invalid_instance(runner, tmp_path):
    bad = tmp_path / "loop.json"
    bad.write_text(json.dumps({"kind": "matching", "n": 2,
                               "edges": [{"id": 0, "u": 0, "v": 0, "w": 1.0}]}))
    result = runner.invoke(main, ["allocate", str(bad), "--epsilon", "0.25"])
    assert result.exit_code == 2
    assert "self-loop" in result.output


def test_allocate_dump_tree(runner, tmp_path):
    path = write_mst3(tmp_path)
    tree_path = tmp_path / "tree.json"
    result = invoke(runner, ["allocate", str(path), "--dump-tree", str(tree_path)])
    assert result.exit_code == 0
    tree = json.loads(tree_path.read_text())
    assert set(tree) == {"nodes"}
    for node in tree["nodes"]:
        assert set(node) == {"children", "h", "id", "leaf"}


def test_allocate_refuses_dump_tree_on_a_matching_game(runner, tmp_path):
    path = write_single_edge(tmp_path)
    tree_path = tmp_path / "out.json"
    result = runner.invoke(main, ["allocate", str(path), "--epsilon", "0.25", "--dump-tree", str(tree_path)])
    expect_input_error(result, "--dump-tree applies only to spanning-tree games")
    assert not tree_path.exists()


def test_allocate_output_feeds_core_check(runner, tmp_path):
    path = write_mst3(tmp_path)
    result = invoke(runner, ["allocate", str(path)])
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(result.output.splitlines()[0])
    check = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "4.0"])
    assert check.exit_code == 0
    assert payload_of(check)["pass"] is True


@pytest.mark.parametrize("kind,args,alpha", [("matching", ["--epsilon", "0.25"], "0.25"), ("mst", [], "4")])
def test_allocations_of_large_weights_pass_core_check(runner, tmp_path, kind, args, alpha):
    path = tmp_path / "inst.json"
    invoke(runner, ["gen", "random", "--kind", kind, "--n", "8", "--seed", "3", "--w-max", "1e7", "-o", str(path)])
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(invoke(runner, ["allocate", str(path), *args]).stdout)
    check = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", alpha])
    assert check.exit_code == 0
    assert payload_of(check)["pass"] is True


def test_core_check_refuses_an_allocation_list(runner, tmp_path):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps([0.5, 0.5]))
    result = runner.invoke(main, ["core-check", str(path), str(alloc_path), "--alpha", "0.25"])
    expect_input_error(result, "expected an object with per-agent values")


@pytest.mark.parametrize("kind,args,alpha", [("matching", ["--epsilon", "0.25"], "0.25"), ("mst", [], "4")])
def test_zero_agent_allocation_feeds_core_check(runner, tmp_path, kind, args, alpha):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"kind": kind, "n": 0, "edges": []}))
    result = invoke(runner, ["allocate", str(path), *args])
    assert result.exit_code == 0
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(result.stdout.splitlines()[0])
    check = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", alpha])
    assert check.exit_code == 0
    assert payload_of(check)["worst_subset"] == []


def test_core_check_with_alpha_times_value_beyond_the_float_range(runner, tmp_path):
    path = tmp_path / "huge.json"
    dump_instance(mst_instance(1, [(ROOT, 0, 1.7e308)]), str(path))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"0": 1.7e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning raises here
        result = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "4"])
    assert result.exit_code == 0
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("core check pass")


def test_core_check_writes_an_infinite_worst_slack_as_null(runner, tmp_path):
    # alpha 4 times a singleton's cost of 1e308 is past the float range, so
    # every proper coalition's slack is inf; the verdict is a pass
    path = tmp_path / "huge.json"
    dump_instance(mst_instance(2, [(ROOT, 0, 1e308), (ROOT, 1, 1e308), (0, 1, 3.3e307)]), str(path))
    alloc_path = tmp_path / "alloc.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        allocated = invoke(runner, ["allocate", str(path)])
        assert allocated.exit_code == 0
        alloc_path.write_text(allocated.stdout)
        result = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "4"])
    assert result.exit_code == 0, result.output
    payload = payload_of(result)
    assert payload["worst_slack"] is None
    assert payload["grand_residual"] == 0.0
    assert payload["pass"] is True
    assert result.stderr.startswith("core check pass: worst slack inf")


def test_core_check_with_a_nan_slack_exits_one_with_a_null_slack(runner, tmp_path):
    # the pair {0, 1} is allocated inf and costs inf: its slack is NaN
    path = tmp_path / "huge.json"
    dump_instance(mst_instance(3, [(ROOT, v, 1e308) for v in range(3)]), str(path))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"0": 1.7e308, "1": 1.7e308, "2": -1.7e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "1"])
    assert result.exit_code == 1
    payload = payload_of(result)
    assert payload["worst_slack"] is None
    assert payload["pass"] is False
    assert len(result.stderr.splitlines()) == 1


def test_core_check_passes_shares_whose_float_sum_is_past_the_float_range(runner, tmp_path):
    # each outer share is one ulp above half the float max, so their float sum is inf;
    # the grand residual is then taken exactly, and it is a few ulps
    path = tmp_path / "star.json"
    dump_instance(matching_instance(3, [(0, 1, 1e308), (0, 2, sys.float_info.max)]), str(path))
    allocated = invoke(runner, ["allocate", str(path), "--epsilon", "0.25"])
    assert allocated.exit_code == 0
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(allocated.stdout)
    result = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "0.25"])
    assert result.exit_code == 0, result.output
    payload = payload_of(result)
    assert payload["pass"] is True
    assert 0 < payload["grand_residual"] < 1e-15 * sys.float_info.max


def test_importing_the_package_loads_no_numpy():
    # nor networkx or scipy, which are installed: the import is most of a CLI run's set-up time
    src = Path(coregauge.__file__).resolve().parents[1]
    code = "import sys, coregauge, coregauge.cli; print(sorted({'numpy', 'networkx', 'scipy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", ["matching-alpha", "mst-alpha", "mst-bound"])
def test_non_finite_alpha_or_bound_exits_two(runner, tmp_path, target, value):
    path = write_single_edge(tmp_path) if target == "matching-alpha" else write_mst3(tmp_path)
    if target == "mst-bound":
        args = ["lipschitz", str(path), "--allocator", "mst-core", f"--bound={value}"]
    else:
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps({"0": 1.0, "1": 2.0}))
        args = ["core-check", str(path), str(alloc_path), f"--alpha={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 would warn of an invalid multiply
        result = invoke(runner, args)
    assert result.exit_code == 2
    assert "finite" in result.stderr
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "args",
    [["random", "--kind", "mst", "--n", "3", "--seed", "1", "--w-max"],
     ["path-bump", "--n", "5", "--out-second", "b.json", "--delta"]],
    ids=["w-max", "delta"],
)
def test_non_finite_generator_parameters_exit_two(runner, tmp_path, args, value):
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    result = runner.invoke(main, ["gen", *args, value, "-o", str(tmp_path / "a.json")])
    expect_input_error(result, "finite")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.output


def test_core_check_failure_exits_one(runner, tmp_path):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"allocation": {"0": 0.0, "1": 0.0}}))
    result = runner.invoke(main, ["core-check", str(path), str(alloc_path), "--alpha", "1.0"])
    assert result.exit_code == 1
    assert payload_of(result)["pass"] is False


def test_core_check_csv_rows(runner, tmp_path):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"allocation": {"0": 0.5, "1": 0.5}}))
    csv_path = tmp_path / "rows.csv"
    result = invoke(runner, ["core-check", str(path), str(alloc_path),
                             "--alpha", "0.25", "--csv", str(csv_path)])
    assert result.exit_code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "subset,value,allocated,slack"
    assert len(lines) == 1 + 3  # empty set and both singletons


def test_shapley_exact_command(runner, tmp_path):
    inst = matching_instance(3, [(0, 1, 2.0), (1, 2, 1.0)])
    path = tmp_path / "p3.json"
    dump_instance(inst, str(path))
    result = invoke(runner, ["shapley", str(path)])
    payload = payload_of(result)
    assert payload["allocation"]["0"] == pytest.approx(2 / 3)
    assert payload["allocation"]["1"] == pytest.approx(7 / 6)
    assert payload["method"] == "exact"
    assert payload["samples"] is None and payload["seed"] is None


@pytest.mark.parametrize("kind,alpha", [("matching", "0.25"), ("mst", "4")])
def test_shapley_output_feeds_core_check(runner, tmp_path, kind, alpha):
    path = tmp_path / "inst.json"
    invoke(runner, ["gen", "random", "--kind", kind, "--n", "6", "--seed", "2", "-o", str(path)])
    values_path = tmp_path / "shapley.json"
    values_path.write_text(invoke(runner, ["shapley", str(path)]).stdout)
    check = runner.invoke(main, ["core-check", str(path), str(values_path), "--alpha", alpha])
    assert check.exit_code in (0, 1), check.output  # a verdict, not bad input
    assert payload_of(check)["pass"] is (check.exit_code == 0)


HUGE_SAMPLED_GAMES = {  # kind: (game, grand value)
    "matching": (matching_instance(2, [(0, 1, 1e307)]), 1e307),
    "tree": (mst_instance(3, [(ROOT, v, 1e307) for v in range(3)] + [(0, 1, 1e307)]), 3e307),
}


@pytest.mark.parametrize("kind", HUGE_SAMPLED_GAMES)
def test_shapley_sample_command_on_huge_weights_exits_zero(runner, tmp_path, kind):
    # at the default 10,000 orderings an undivided sum of marginals overflows
    inst, grand = HUGE_SAMPLED_GAMES[kind]
    path = tmp_path / "huge.json"
    dump_instance(inst, str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = invoke(runner, ["shapley", str(path), "--method", "sample"])
    assert result.exit_code == 0
    assert len(result.stderr.splitlines()) == 1
    values = payload_of(result)["allocation"].values()
    assert all(math.isfinite(x) for x in values)
    assert math.fsum(values) == pytest.approx(grand, rel=1e-9)


def test_shapley_sample_command_is_seeded(runner, tmp_path):
    path = write_single_edge(tmp_path)
    args = ["shapley", str(path), "--method", "sample", "--samples", "50", "--seed", "4"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2
    payload = json.loads(out1.splitlines()[0])
    assert (payload["method"], payload["samples"], payload["seed"]) == ("sample", 50, 4)


def test_lipschitz_command_pass_and_csv(runner, tmp_path):
    path = write_mst3(tmp_path)
    csv_path = tmp_path / "probes.csv"
    result = invoke(runner, ["lipschitz", str(path), "--allocator", "mst-core",
                             "--bound", "29.86", "--csv", str(csv_path)])
    assert result.exit_code == 0
    payload = payload_of(result)
    assert payload["pass"] is True
    assert payload["max_ratio"] <= 29.86
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "edge_id,w_e,delta,ratio"
    assert len(lines) == 1 + 3 * 4


def test_lipschitz_command_fail_exits_one(runner, tmp_path):
    path = write_mst3(tmp_path)
    result = runner.invoke(main, ["lipschitz", str(path), "--allocator", "mst-core",
                                  "--bound", "0.001"])
    assert result.exit_code == 1


def test_lipschitz_writes_infinite_ratios_as_null_and_exits_one(runner, tmp_path):
    path = tmp_path / "wide.json"
    dump_instance(matching_instance(3, [(0, 1, 1.8198487409149054e-286), (1, 2, 8.841660617320854e+307)]), str(path))
    result = runner.invoke(main, ["lipschitz", str(path), "--allocator", "matching-core",
                                  "--epsilon", "0.25", "--bound", "49"])
    assert result.exit_code == 1
    payload = payload_of(result)
    assert payload["pass"] is False and payload["max_ratio"] is None
    ratios = [probe["ratio"] for probe in payload["probes"]]
    assert ratios[:4] == [None] * 4 and all(math.isfinite(r) for r in ratios[4:])


def test_core_check_refuses_a_negative_welfare_alpha(runner, tmp_path):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"0": 0.5, "1": 0.5}))
    result = runner.invoke(main, ["core-check", str(path), str(alloc_path), "--alpha", "-1"])
    expect_input_error(result, "welfare games need 0 <= alpha <= 1, got -1.0")
    assert len(result.stderr.splitlines()) == 1


def test_shapley_sample_on_twenty_matching_agents_is_quick(runner, tmp_path):
    path = tmp_path / "twenty.json"
    dump_instance(gen_random(GameKind.MATCHING, 20, 0.5, 10.0, 7), str(path))
    start = time.perf_counter()
    result = invoke(runner, ["shapley", str(path), "--method", "sample", "--samples", "5000"])
    assert time.perf_counter() - start < 20.0
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "inst,extra",
    [
        (matching_instance(2, [(0, 1, 1.7e308)]), ["--epsilon", "0.25"]),
        (matching_instance(3, [(0, 1, 1.7e308), (1, 2, 2.0)]), ["--epsilon", "0.05"]),
        (mst_instance(1, [(ROOT, 0, 1.7e308)]), []),
        (mst_instance(2, [(ROOT, 0, 1.7e308), (ROOT, 1, 3.0), (0, 1, 1.0)]), []),
    ],
    ids=["matching-edge", "matching-path", "mst-edge", "mst-triangle"],
)
def test_allocate_weights_near_the_float_limit(runner, tmp_path, inst, extra):
    path = tmp_path / "huge.json"
    dump_instance(inst, str(path))
    result = invoke(runner, ["allocate", str(path), *extra])
    assert result.exit_code == 0
    payload = payload_of(result)
    total = math.fsum(payload["allocation"].values())
    assert abs(total - payload["grand_value"]) <= 1e-12 * payload["grand_value"]


def expect_input_error(result, needle):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert needle in result.output


def test_allocate_rejects_an_edge_record_that_is_not_an_object(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "matching", "n": 2, "edges": [5]}))
    result = runner.invoke(main, ["allocate", str(bad), "--epsilon", "0.25"])
    expect_input_error(result, "malformed edge record 5")


MAX = sys.float_info.max
HUGE_TREE = mst_instance(2, [(ROOT, 0, 1.7e308), (ROOT, 1, 1.7e308)])
HUGE_PAIR = matching_instance(4, [(0, 1, 1.7e308), (2, 3, 1.7e308)])


@pytest.mark.parametrize(
    "inst,args,needle",
    [
        (HUGE_TREE, ["allocate"], "float range"),
        (HUGE_PAIR, ["allocate", "--epsilon", "0.25"], "float range"),
        (matching_instance(2, [(0, 1, 1.7e308)]),
         ["lipschitz", "--allocator", "matching-raw", "--base", "1.5", "--bound", "25"],
         "failed on the unperturbed instance"),
        (HUGE_TREE, ["lipschitz", "--allocator", "mst-core", "--bound", "30"],
         "failed on the unperturbed instance"),
        (HUGE_PAIR, ["shapley"], "float range"),
        (mst_instance(1, [(ROOT, 0, 1.7e308)]), ["allocate", "--dump-tree", "tree.json"],
         "float range"),
        (mst_instance(1, [(ROOT, 0, 1.7e308)]), ["lipschitz", "--allocator", "mst-raw", "--bound", "15"],
         "float range"),
        # the exact core point pays agent 0 about -1.5 times the largest float
        (mst_instance(3, [(ROOT, 0, 2.0**1023), (ROOT, 1, MAX), (ROOT, 2, MAX),
                          (0, 1, 1.0), (0, 2, 1.0), (1, 2, MAX)]),
         ["lipschitz", "--allocator", "exact-core", "--bound", "100"], "float range"),
        # two sampled payoffs near 9e307 sum past the largest float
        (matching_instance(3, [(0, 1, MAX), (0, 2, 5e-324)]),
         ["shapley", "--method", "sample", "--samples", "30"], "a result exceeds the float range"),
    ],
    ids=["mst-allocate", "matching-allocate", "matching-raw-lipschitz", "mst-lipschitz",
         "shapley", "dump-tree", "mst-raw-lipschitz", "exact-core-lipschitz", "shapley-sample-total"],
)
def test_values_beyond_the_float_range_exit_two(runner, tmp_path, inst, args, needle):
    path = tmp_path / "huge.json"
    dump_instance(inst, str(path))
    args = [str(tmp_path / a) if a == "tree.json" else a for a in args]
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    expect_input_error(result, needle)
    assert "Infinity" not in result.stdout and "NaN" not in result.stdout


def test_allocate_a_tree_cost_at_the_float_max_exits_zero(runner, tmp_path):
    max_ = sys.float_info.max
    inst = mst_instance(5, [
        (ROOT, 0, 1e300), (ROOT, 1, 2.2250738585072014e-308), (ROOT, 2, 1.0), (ROOT, 3, max_),
        (ROOT, 4, max_), (0, 1, 1e-300), (1, 4, 2.2250738585072014e-308), (2, 4, 1e300),
    ])
    path = tmp_path / "max_cost.json"
    dump_instance(inst, str(path))
    result = invoke(runner, ["allocate", str(path)])
    assert result.exit_code == 0
    shares = payload_of(result)["allocation"]
    assert math.fsum(shares.values()) == max_


@pytest.mark.parametrize(
    "allocation,needle",
    [
        ({"0": 0.5, "-1": 0.5}, "not a distinct agent id"),
        ({"0": 0.5, "2": 0.5}, "not a distinct agent id"),
        ({"0": 0.5, "00": 0.5}, "not a distinct agent id"),
        ({"0": 1.0}, "no allocation value for agents [1]"),
        ({"0": 0.5, "1": float("nan")}, "not finite"),
        ({"0": 0.5, "1": [1]}, "bad allocation entry"),
        ({"0": 0.5, "1": True}, "bad allocation entry"),
        ({"0": 0.5, "1": "0.5"}, "bad allocation entry"),
        ({"0": 0.5, " 1": 0.5}, "not a distinct agent id"),
    ],
    ids=["negative-key", "key-past-n", "duplicate-agent", "missing-agent", "nan", "list",
         "boolean", "string-number", "padded-key"],
)
def test_core_check_rejects_bad_allocation_entries(runner, tmp_path, allocation, needle):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"allocation": allocation}))
    result = runner.invoke(main, ["core-check", str(path), str(alloc_path), "--alpha", "0.25"])
    expect_input_error(result, needle)


@pytest.mark.parametrize(
    "args,needle",
    [
        (["gen", "path", "--n", "3", "-o", "missing/a.json"], "missing"),
        (["gen", "path-zero-ends", "--n", "5", "-o", "a.json", "--out-second", "missing/b.json"], "missing"),
        (["gen", "path-bump", "--n", "5", "--delta", "0.1", "-o", "missing/a.json", "--out-second", "b.json"],
         "missing"),
        (["gen", "random", "--kind", "mst", "--n", "3", "--seed", "1", "-o", "missing/a.json"], "missing"),
        (["allocate", "mst3.json", "--dump-tree", "missing/tree.json"], "missing"),
        (["core-check", "mst3.json", "alloc.json", "--alpha", "4", "--csv", "missing/rows.csv"], "missing"),
        (["lipschitz", "mst3.json", "--allocator", "mst-core", "--bound", "30", "--csv", "missing/probes.csv"],
         "missing"),
        (["core-check", "mst3.json", "latin1.json", "--alpha", "4"], "latin1.json"),
    ],
    ids=["gen-path", "gen-zero-ends", "gen-bump", "gen-random", "dump-tree", "core-check-csv",
         "lipschitz-csv", "non-utf8-allocation"],
)
def test_unwritable_outputs_and_unreadable_allocations_exit_two(runner, tmp_path, args, needle):
    write_mst3(tmp_path)
    (tmp_path / "alloc.json").write_text(json.dumps({"0": 1.0, "1": 2.0}))
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{")
    args = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in args]
    result = runner.invoke(main, args)
    expect_input_error(result, str(tmp_path / needle))
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


ONE_EDGE_OF_100 = matching_instance(100, [(0, 1, 1.0)])
TWO_EDGES_OF_21 = matching_instance(21, [(0, 1, 1.0), (19, 20, 2.0)])


@pytest.mark.parametrize(
    "args",
    [["allocate", "--epsilon", "0.25"], ["shapley", "--method", "sample", "--samples", "1"]],
    ids=["allocate", "shapley-sample"],
)
def test_coalition_enumeration_past_twenty_agents_exits_two(runner, tmp_path, args):
    path = tmp_path / "wide.json"
    for inst in (ONE_EDGE_OF_100, TWO_EDGES_OF_21):
        dump_instance(inst, str(path))
        start = time.perf_counter()
        result = runner.invoke(main, [args[0], str(path), *args[1:]])
        assert time.perf_counter() - start < 20.0
        expect_input_error(result, f"coalition enumeration is limited to 20 agents, got {inst.n}")
        assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [["allocate", "--epsilon", "0.25"], ["shapley", "--method", "sample", "--samples", "1"],
     ["core-check", "alloc.json", "--alpha", "0.25"]],
    ids=["allocate", "shapley-sample", "core-check"],
)
def test_an_agent_count_too_large_for_memory_exits_two(runner, tmp_path, args):
    path = tmp_path / "vast.json"
    path.write_text(json.dumps({"kind": "matching", "n": 2**40, "edges": []}))
    (tmp_path / "alloc.json").write_text("{}")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    expect_input_error(result, "error: ")
    assert len(result.stderr.splitlines()) == 1


def test_a_vast_tree_game_without_supply_edges_exits_two_with_one_line(runner, tmp_path):
    path = tmp_path / "vast-tree.json"
    path.write_text(json.dumps({"kind": "mst", "n": 2**40, "edges": []}))
    result = runner.invoke(main, ["allocate", str(path)])
    expect_input_error(result, "agents 0, 1, 2, 3, 4 and 1099511627771 more are not adjacent to the root")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("which", ["instance", "allocation"])
def test_deeply_nested_json_exits_two_with_one_line(runner, tmp_path, which):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)  # past the JSON decoder's recursion limit
    files = {"instance": write_single_edge(tmp_path), "allocation": tmp_path / "alloc.json"}
    files["allocation"].write_text(json.dumps({"allocation": {"0": 0.5, "1": 0.5}}))
    files[which] = nested
    result = runner.invoke(main, ["core-check", str(files["instance"]), str(files["allocation"]), "--alpha", "0.25"])
    expect_input_error(result, "nested too deeply to read")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("weight", [5e-324, 1e308], ids=["subnormal", "huge"])
def test_lipschitz_probes_the_smallest_and_largest_weights(runner, tmp_path, weight):
    path = tmp_path / "edge.json"
    dump_instance(mst_instance(1, [(ROOT, 0, weight)]), str(path))
    result = invoke(runner, ["lipschitz", str(path), "--allocator", "mst-core", "--bound", "30"])
    assert result.exit_code == 0
    payload = payload_of(result)
    assert payload["pass"] is True
    assert payload["probes"] and all(p["delta"] > 0 for p in payload["probes"])


def test_lipschitz_ratio_of_an_l1_change_past_the_float_range(runner, tmp_path):
    # bumping edge 0 by its own weight moves ~9e307 from agent 2 to agent 1:
    # the l1 change is past the largest float, its ratio to the bump ~2
    path = tmp_path / "triangle.json"
    dump_instance(matching_instance(3, [(0, 1, 8.988465674311579e307), (0, 2, MAX),
                                        (1, 2, 1.4524687906037625e308)]), str(path))
    result = invoke(runner, ["lipschitz", str(path), "--allocator", "matching-core", "--epsilon", "0.25",
                             "--bound", "49"])
    assert result.exit_code == 0
    payload = payload_of(result)
    assert payload["pass"] is True
    assert payload["max_ratio"] == pytest.approx(2.0, rel=1e-12)


def test_lipschitz_matching_raw_on_an_edge_whose_rounding_fits_the_float_range(runner, tmp_path):
    # 1e308 at base 1.5 rounds to at most ~1.50e308 at every offset; 24 is
    # the raw bound 12 / (base - 1)
    path = tmp_path / "edge.json"
    dump_instance(matching_instance(2, [(0, 1, 1e308)]), str(path))
    result = invoke(runner, ["lipschitz", str(path), "--allocator", "matching-raw", "--base", "1.5",
                             "--bound", "24"])
    assert result.exit_code == 0
    assert payload_of(result)["pass"] is True


def test_a_closed_stdout_pipe_is_not_reported_as_bad_input(tmp_path):
    path = write_mst3(tmp_path)
    src = Path(coregauge.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "coregauge.cli", "allocate", str(path)], cwd=src,
                             stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert out.returncode == 1  # click's own exit code for a broken pipe
    assert "error:" not in out.stderr


def test_in_process_runs_release_their_streams(runner, tmp_path):
    # each CliRunner run swaps in new sys.stdout/sys.stderr wrappers; nothing
    # in the CLI may keep them alive once the run is over
    path = write_mst3(tmp_path)

    def live_wrappers():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())

    invoke(runner, ["allocate", str(path)])
    before = live_wrappers()
    for _ in range(20):
        invoke(runner, ["allocate", str(path)])
    assert live_wrappers() - before < 20


def test_gen_round_trips_through_allocate(runner, tmp_path):
    out = tmp_path / "rand.json"
    result = invoke(runner, ["gen", "random", "--kind", "matching", "--n", "6",
                             "--seed", "5", "-o", str(out)])
    assert result.exit_code == 0
    result = invoke(runner, ["allocate", str(out), "--epsilon", "0.25"])
    assert result.exit_code == 0


def test_gen_pair_commands(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    result = invoke(runner, ["gen", "path-zero-ends", "--n", "5", "-o", str(a),
                             "--out-second", str(b)])
    assert result.exit_code == 0
    assert json.loads(b.read_text())["edges"][0]["w"] == 0.0
    result = invoke(runner, ["gen", "path-bump", "--n", "5", "--delta", "0.1",
                             "-o", str(a), "--out-second", str(b)])
    assert result.exit_code == 0
    assert json.loads(b.read_text())["edges"][1]["w"] == 1.1


@pytest.mark.parametrize(
    "args",
    [["gen", "path-zero-ends", "--n", "5"], ["gen", "path-bump", "--n", "5", "--delta", "0.1"]],
    ids=["zero-ends", "bump"],
)
def test_gen_pair_commands_write_both_files_or_neither(runner, tmp_path, args):
    first = tmp_path / "a.json"
    result = runner.invoke(main, [*args, "-o", str(first), "--out-second", str(tmp_path / "missing" / "b.json")])
    expect_input_error(result, "missing")
    assert not first.exists()


def test_gen_path_writes_a_uniform_path(runner, tmp_path):
    out = tmp_path / "path.json"
    result = invoke(runner, ["gen", "path", "--n", "5", "-o", str(out)])
    assert payload_of(result) == {"written": [str(out)]}
    assert load_instance(str(out)) == gen_path_uniform(5)


def test_a_runtime_error_in_a_command_is_not_bad_input(runner, tmp_path, monkeypatch):
    def buggy(inst):
        raise RuntimeError("a bug, not bad input")

    monkeypatch.setattr("coregauge.cli.shapley_exact", buggy)
    result = runner.invoke(main, ["shapley", str(write_single_edge(tmp_path))])
    assert result.exit_code != 2
    assert isinstance(result.exception, RuntimeError)


def test_gen_rejects_bad_parameters(runner, tmp_path):
    out = tmp_path / "x.json"
    result = runner.invoke(main, ["gen", "path", "--n", "1", "-o", str(out)])
    assert result.exit_code == 2


def test_payloads_are_byte_identical_across_runs(runner, tmp_path):
    path = write_mst3(tmp_path)
    out1 = invoke(runner, ["allocate", str(path)]).output
    out2 = invoke(runner, ["allocate", str(path)]).output
    assert out1 == out2
    keys = list(payload_of(invoke(runner, ["allocate", str(path)])))
    assert keys == sorted(keys)
