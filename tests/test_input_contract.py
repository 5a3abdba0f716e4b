"""Hypothesis fuzz of the CLI input contract.

Every instance document here is invalid by construction: it starts from
a valid game of at most six agents and breaks exactly one rule of the
schema. Each subcommand must exit 2 with a message, never a traceback.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coregauge.cli import main

SUBCOMMANDS = {
    "allocate": ["--epsilon", "0.25"],
    "core-check": ["ALLOCATION", "--alpha", "1.0"],
    "shapley": [],
    "lipschitz": ["--allocator", "shapley", "--bound", "30"],
}

NOT_AN_INTEGER = st.one_of(
    st.floats(allow_nan=False).filter(lambda x: not x.is_integer()),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
NOT_A_NUMBER = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(), max_size=2))
NOT_AN_OBJECT = st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=5), st.none(),
                          st.booleans(), st.lists(st.integers(), max_size=3))


def valid_document(kind: str, n: int) -> dict:
    """A path on the agents; spanning-tree games also join every agent to the supply."""
    pairs = [(v, v + 1) for v in range(n - 1)]
    if kind == "mst":
        pairs += [(-1, v) for v in range(n)]
    edges = [{"id": i, "u": u, "v": v, "w": 1.0 + i} for i, (u, v) in enumerate(pairs)]
    return {"kind": kind, "n": n, "edges": edges}


@st.composite
def invalid_documents(draw):
    kind = draw(st.sampled_from(["matching", "mst"]))
    n = draw(st.integers(3, 6))  # at least two edges, so an id can be duplicated
    doc = valid_document(kind, n)
    edges = doc["edges"]
    rec = edges[draw(st.integers(0, len(edges) - 1))]
    fault = draw(st.sampled_from([
        "not-an-object", "missing-key", "kind", "n", "edges", "edge-not-an-object",
        "missing-edge-key", "non-integer-field", "weight", "duplicate-id", "endpoint",
    ]))
    if fault == "not-an-object":
        return draw(NOT_AN_OBJECT), n
    if fault == "missing-key":
        del doc[draw(st.sampled_from(["kind", "n", "edges"]))]
    elif fault == "kind":
        doc["kind"] = draw(st.one_of(st.text(max_size=6), NOT_AN_INTEGER, st.integers())
                           .filter(lambda k: k not in ("matching", "mst")))
    elif fault == "n":
        doc["n"] = draw(st.one_of(NOT_AN_INTEGER, st.integers(max_value=-1)))
    elif fault == "edges":
        doc["edges"] = draw(st.one_of(st.integers(), st.text(min_size=1, max_size=3), st.booleans(),
                                      st.none(), st.just({"id": 0})))
    elif fault == "edge-not-an-object":
        edges[edges.index(rec)] = draw(NOT_AN_OBJECT)
    elif fault == "missing-edge-key":
        del rec[draw(st.sampled_from(["id", "u", "v", "w"]))]
    elif fault == "non-integer-field":
        rec[draw(st.sampled_from(["id", "u", "v"]))] = draw(NOT_AN_INTEGER)
    elif fault == "weight":
        rec["w"] = draw(st.one_of(NOT_A_NUMBER, st.floats(max_value=-1e-300),
                                  st.sampled_from([float("inf"), float("nan")])))
    elif fault == "duplicate-id":
        other = edges[(edges.index(rec) + 1) % len(edges)]
        rec["id"] = other["id"]
    else:  # an endpoint that is neither an agent nor, in tree games, the supply
        low = -1 if kind == "matching" else -2
        rec[draw(st.sampled_from(["u", "v"]))] = draw(
            st.one_of(st.integers(n, n + 10**9), st.integers(low - 10**9, low)))
    return doc, n


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@given(case=invalid_documents())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_invalid_instance_documents_exit_two(tmp_path, command, case):
    doc, n = case
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    allocation = tmp_path / "allocation.json"  # valid for the unbroken game
    allocation.write_text(json.dumps({"allocation": {str(v): 1.0 for v in range(n)}}))
    extra = [str(allocation) if a == "ALLOCATION" else a for a in SUBCOMMANDS[command]]
    result = CliRunner().invoke(main, [command, str(path), *extra])
    assert result.exit_code == 2, (doc, result.output, result.exception)
    assert isinstance(result.exception, SystemExit), (doc, result.exception)
    assert "error:" in result.output
