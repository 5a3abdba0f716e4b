"""The CLI's exit-code contract, fuzzed across commands and weights.

Seeded Hypothesis examples of at most six agents, valid or broken in one
way, with weights drawn from the float range's corners, go through every
command in process: ``allocate``, ``shapley`` (exact and sampled),
``lipschitz`` on every named allocator and ``core-check``. Whatever the
input, a command exits 0 (ok), 1 (a check failed) or 2 (bad input),
raises nothing past ``SystemExit``, and prints nothing on stdout but
JSON without NaN or infinities. The library twin asks the same of every
named allocator: finite shares, or a ValueError; the shares of an
allocator that claims the grand value sum to it within ``core_check``'s
allowance.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from coregauge.analysis import ALLOCATOR_NAMES, GRAND_TOL, named_allocator
from coregauge.cli import main
from coregauge.games import ROOT, instance_from_dict, validate_instance
from coregauge.oracles import char_value

CORNERS = (0.0, 5e-324, 1.0, 1e308, sys.float_info.max)
WEIGHT = st.sampled_from(CORNERS)
FAULTS = ("none", "none", "none", "truncated", "weight", "no-root-edge", "endpoint", "negative-n")
CLAIMS_GRAND_VALUE = ("matching-core", "mst-core", "shapley", "exact-core")
CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def documents(draw) -> dict:
    """A valid instance document: at most six agents and four agent edges;
    a spanning-tree game also joins every agent to the supply."""
    kind = draw(st.sampled_from(["matching", "mst"]))
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    if kind == "mst":
        chosen = [(ROOT, v) for v in range(n)] + chosen
    edges = [{"id": i, "u": u, "v": v, "w": draw(WEIGHT)} for i, (u, v) in enumerate(chosen)]
    return {"kind": kind, "n": n, "edges": edges}


@st.composite
def instance_texts(draw) -> tuple[str, int]:
    """An instance file's text, valid or broken in one way, and its agent count."""
    doc = draw(documents())
    fault = draw(st.sampled_from(FAULTS))
    edges = doc["edges"]
    if fault == "weight" and edges:
        edges[draw(st.integers(0, len(edges) - 1))]["w"] = draw(st.sampled_from([-1.0, math.inf, "1", None]))
    elif fault == "no-root-edge" and doc["kind"] == "mst" and doc["n"]:
        del edges[0]
        for i, rec in enumerate(edges):
            rec["id"] = i
    elif fault == "endpoint" and edges:
        edges[-1]["v"] = doc["n"]
    elif fault == "negative-n":
        doc["n"] = -1
    text = json.dumps(doc)
    if fault == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, doc["n"]


@st.composite
def allocation_texts(draw, n: int) -> str:
    """An allocation file's text: one corner value per agent, sometimes
    with an agent missing or a value that is no number."""
    values = {str(v): draw(WEIGHT) for v in range(max(n, 0))}
    fault = draw(st.sampled_from(["none", "none", "missing", "not-a-number"]))
    if fault == "missing" and values:
        values.pop(str(n - 1))
    elif fault == "not-a-number" and values:
        values["0"] = "one"
    return json.dumps({"allocation": values})


def reject_constant(name: str):
    raise AssertionError(f"stdout holds {name}")


def check_contract(args: list[str]) -> None:
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    for line in result.stdout.splitlines():
        json.loads(line, parse_constant=reject_constant)


COMMANDS = {
    "allocate": ["allocate", "INSTANCE", "--epsilon", "0.25"],
    "shapley-exact": ["shapley", "INSTANCE", "--method", "exact"],
    "shapley-sample": ["shapley", "INSTANCE", "--method", "sample", "--samples", "20", "--seed", "3"],
    **{f"lipschitz-{name}": ["lipschitz", "INSTANCE", "--allocator", name, "--bound", "30",
                             "--epsilon", "0.25", "--base", "1.5"] for name in ALLOCATOR_NAMES},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(case=instance_texts())
@CONTRACT
def test_every_command_keeps_the_exit_code_contract(command, case):
    text, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(text)
        check_contract([str(path) if a == "INSTANCE" else a for a in COMMANDS[command]])


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_core_check_keeps_the_exit_code_contract(data):
    text, n = data.draw(instance_texts())
    allocation = data.draw(allocation_texts(n))
    alpha = data.draw(st.sampled_from(["0.5", "1.0", "4.0"]))
    with tempfile.TemporaryDirectory() as tmp:
        path, alloc = Path(tmp) / "instance.json", Path(tmp) / "allocation.json"
        path.write_text(text)
        alloc.write_text(allocation)
        check_contract(["core-check", str(path), str(alloc), "--alpha", alpha])


@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
@given(doc=documents())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_every_named_allocator_gives_finite_shares_or_a_value_error(name, doc):
    inst = instance_from_dict(doc)
    assert not validate_instance(inst)
    try:
        shares = named_allocator(name, epsilon=0.25, base=1.5)(inst)
    except ValueError:
        return
    assert len(shares) == inst.n
    assert all(math.isfinite(x) for x in shares)
    # the paper's allocators pay every agent a nonnegative share; so do the
    # Shapley value and core of a matching game, which is monotone, but a
    # spanning-tree game's agent can lower the cost of the others
    if name not in ("shapley", "exact-core") or doc["kind"] == "matching":
        assert all(x >= 0 for x in shares)
    grand = char_value(inst, range(inst.n))  # a tree cost can pass the float range
    if name in CLAIMS_GRAND_VALUE and math.isfinite(grand):
        # core_check's grand residual test at alpha = 1, summed exactly: shares
        # within the allowance of the float max can sum past the float range
        unit = inst.n * sys.float_info.epsilon
        allowance = sum(unit * abs(x) for x in shares) + unit * abs(grand)
        assert abs(sum(map(Fraction, shares)) - Fraction(grand)) <= GRAND_TOL + allowance
