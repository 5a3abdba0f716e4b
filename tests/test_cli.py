import gc
import io
import json
import math
import warnings

import pytest
from click.testing import CliRunner

from coregauge.cli import main
from coregauge.games import dump_instance
from coregauge.instances import gen_path_uniform

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


def test_allocate_rejects_mismatched_game_flag(runner, tmp_path):
    path = write_single_edge(tmp_path)
    result = runner.invoke(main, ["allocate", str(path), "--game", "mst"])
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


def test_allocate_output_feeds_core_check(runner, tmp_path):
    path = write_mst3(tmp_path)
    result = invoke(runner, ["allocate", str(path)])
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(result.output.splitlines()[0])
    check = invoke(runner, ["core-check", str(path), str(alloc_path), "--alpha", "4.0"])
    assert check.exit_code == 0
    assert payload_of(check)["pass"] is True


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
    assert payload["values"]["0"] == pytest.approx(2 / 3)
    assert payload["values"]["1"] == pytest.approx(7 / 6)
    assert payload["method"] == "exact"


def test_shapley_sample_command_is_seeded(runner, tmp_path):
    path = write_single_edge(tmp_path)
    args = ["shapley", str(path), "--method", "sample", "--samples", "50", "--seed", "4"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2


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
    ],
    ids=["mst-allocate", "matching-allocate", "matching-raw-lipschitz", "mst-lipschitz",
         "shapley", "dump-tree"],
)
def test_values_beyond_the_float_range_exit_two(runner, tmp_path, inst, args, needle):
    path = tmp_path / "huge.json"
    dump_instance(inst, str(path))
    args = [str(tmp_path / a) if a == "tree.json" else a for a in args]
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    expect_input_error(result, needle)
    assert "Infinity" not in result.stdout and "NaN" not in result.stdout


@pytest.mark.parametrize(
    "allocation,needle",
    [
        ({"0": 0.5, "-1": 0.5}, "not a distinct agent id"),
        ({"0": 0.5, "2": 0.5}, "not a distinct agent id"),
        ({"0": 0.5, "00": 0.5}, "not a distinct agent id"),
        ({"0": 1.0}, "no allocation value for agents [1]"),
        ({"0": 0.5, "1": "nan"}, "not finite"),
        ({"0": 0.5, "1": [1]}, "bad allocation entry"),
    ],
    ids=["negative-key", "key-past-n", "duplicate-agent", "missing-agent", "nan", "list"],
)
def test_core_check_rejects_bad_allocation_entries(runner, tmp_path, allocation, needle):
    path = write_single_edge(tmp_path)
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"allocation": allocation}))
    result = runner.invoke(main, ["core-check", str(path), str(alloc_path), "--alpha", "0.25"])
    expect_input_error(result, needle)


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
