"""Instance and allocation data model shared across the package.

A game instance is a weighted graph. In welfare (matching) games every
vertex is an agent; in cost (spanning tree) games there is one extra
supply vertex, written as vertex id -1, that is not an agent. All types
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

ROOT = -1

NAMED_MISSING = 5  # agent ids named in the message on agents cut off from the root


class GameKind(Enum):
    MATCHING = "matching"
    MIN_SPANNING_TREE = "mst"


@dataclass(frozen=True, slots=True)
class Edge:
    """Undirected edge; the id doubles as the tie-breaking index. Slotted:
    edges are the most numerous objects an instance holds."""

    id: int
    u: int
    v: int


@dataclass(frozen=True)
class GameInstance:
    """A graph game: agents 0..n-1, indexed edges, nonnegative weights.

    A spanning-tree game's supply vertex is always ``ROOT``, never an
    agent index. Edge ids must be exactly 0..m-1 and each edge's position
    must equal its id, so that ``weights[e.id]`` is the weight of edge ``e``.
    """

    kind: GameKind
    n: int
    edges: tuple[Edge, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights must have the same length")
        for pos, e in enumerate(self.edges):
            if e.id != pos:
                raise ValueError(f"edge at position {pos} has id {e.id}; ids must be 0..m-1 in order")

    @property
    def m(self) -> int:
        return len(self.edges)

    def with_weights(self, weights: Sequence[float]) -> "GameInstance":
        """Copy of this instance with a replaced weight vector."""
        if len(weights) != self.m:
            raise ValueError(f"expected {self.m} weights, got {len(weights)}")
        return GameInstance(self.kind, self.n, self.edges, tuple([float(w) for w in weights]))


def require_kind(inst: GameInstance, kind: GameKind, who: str = "this allocator") -> None:
    """The one kind check of the package's kind-specific entry points."""
    if inst.kind is not kind:
        noun = "matching" if kind is GameKind.MATCHING else "spanning-tree"
        raise ValueError(f"{who} requires a {noun} game")


def refuse_past(n: int, limit: int, what: str) -> None:
    """The one agent-limit refusal of the exponential engines."""
    if n > limit:
        raise ValueError(f"{what} is limited to {limit} agents, got {n}")


@dataclass(frozen=True)
class Allocation:
    """Per-agent payoff or cost share, indexed by agent id 0..n-1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for i, x in enumerate(self.values):
            if not math.isfinite(x):
                raise ValueError(f"allocation value for agent {i} is not a number within the float range: {x}")

    @classmethod
    def of(cls, values: Iterable[float]) -> "Allocation":
        return cls(tuple([float(x) for x in values]))

    @property
    def n(self) -> int:
        return len(self.values)

    def total(self) -> float:
        return _fsum_in_range(self.values)

    def as_array(self):
        import numpy as np  # kept off the package's import path

        return np.asarray(self.values, dtype=float)


def validate_instance(inst: GameInstance) -> tuple[str, ...]:
    """Check every structural invariant; the violations are returned as
    data, not raised, and there are none exactly when the instance is valid."""
    bad: list[str] = []
    is_mst = inst.kind is GameKind.MIN_SPANNING_TREE
    if inst.n < 0:
        bad.append(f"negative agent count {inst.n}")
    seen_pairs: dict[tuple[int, int], int] = {}
    root_adjacent: set[int] = set()
    for e in inst.edges:
        if e.u == e.v:
            bad.append(f"edge {e.id} is a self-loop on vertex {e.u}")
            continue
        for x in (e.u, e.v):
            if x == ROOT:
                if not is_mst:
                    bad.append(f"edge {e.id} touches the root but the game kind is matching")
            elif not 0 <= x < inst.n:
                bad.append(f"edge {e.id} endpoint {x} is not an agent id")
        pair = (min(e.u, e.v), max(e.u, e.v))
        if pair in seen_pairs:
            bad.append(f"edges {seen_pairs[pair]} and {e.id} are parallel on vertices {pair}")
        else:
            seen_pairs[pair] = e.id
        if inst.weights[e.id] < 0:
            bad.append(f"edge {e.id} has negative weight {inst.weights[e.id]}")
        if not math.isfinite(inst.weights[e.id]):
            bad.append(f"edge {e.id} has non-finite weight {inst.weights[e.id]}")
        if is_mst and ROOT in (e.u, e.v):
            root_adjacent.add(e.u if e.v == ROOT else e.v)
    if is_mst:
        missing = inst.n - len({v for v in root_adjacent if 0 <= v < inst.n})
        if missing > 0:
            # O(m), whatever n is: the named ids are among the first
            # len(root_adjacent) + NAMED_MISSING agents
            unreached = (v for v in range(inst.n) if v not in root_adjacent)
            first = list(itertools.islice(unreached, NAMED_MISSING))
            named = ", ".join(map(str, first))
            if missing > len(first):
                named += f" and {missing - len(first)} more"
            bad.append(f"agent {named} is not adjacent to the root" if missing == 1
                       else f"agents {named} are not adjacent to the root")
    return tuple(bad)


def _fsum_in_range(values: Iterable[float]) -> float:
    """``math.fsum(values)``, refused when the sum is past the float range."""
    try:
        total = math.fsum(values)
    except OverflowError:  # fsum's partial sums overflowed
        total = math.inf
    if math.isinf(total):
        raise ValueError("a result exceeds the float range")
    return total


def l1_distance(a: Allocation | Sequence[float], b: Allocation | Sequence[float]) -> float:
    """Sum of coordinatewise absolute differences over a shared index set."""
    av = a.values if isinstance(a, Allocation) else tuple(a)
    bv = b.values if isinstance(b, Allocation) else tuple(b)
    if len(av) != len(bv):
        raise ValueError(f"index sets differ: {len(av)} vs {len(bv)}")
    return _fsum_in_range(abs(x - y) for x, y in zip(av, bv))


def perturb(weights: Sequence[float], edge_id: int, delta: float) -> tuple[float, ...]:
    """Copy of ``weights`` with ``delta`` added to one coordinate.

    Every other coordinate is returned bit-identical.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0 <= edge_id < len(weights):
        raise ValueError(f"unknown edge id {edge_id}")
    out = list(float(w) for w in weights)
    out[edge_id] += delta
    return tuple(out)


def instance_to_dict(inst: GameInstance) -> dict:
    """Serialize to the interchange schema (root appears as vertex -1)."""
    return {
        "kind": inst.kind.value,
        "n": inst.n,
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "w": inst.weights[e.id]} for e in inst.edges
        ],
    }


def _json(value, types: type | tuple[type, ...], what: str):
    """``value`` if it has one of the JSON ``types``; a boolean is no number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{value!r} is not {what}")
    return value


def instance_from_dict(data: dict) -> GameInstance:
    """Parse the interchange schema; raises ValueError on malformed input.
    Counts, ids and endpoints must be JSON integers, weights JSON numbers."""
    try:
        kind = GameKind(data["kind"])
        n = _json(data["n"], int, "an integer")
        raw_edges = _json(data["edges"], list, "a list")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance: {exc}") from exc
    records = []
    for rec in raw_edges:
        try:
            eid, u, v = (_json(rec[key], int, "an integer") for key in ("id", "u", "v"))
            records.append((eid, u, v, float(_json(rec["w"], (int, float), "a number"))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed edge record {rec!r}: {exc}") from exc
    records.sort(key=lambda rec: rec[0])  # GameInstance refuses ids other than 0..m-1
    edges = tuple([Edge(eid, u, v) for eid, u, v, _ in records])
    weights = tuple([w for _, _, _, w in records])
    return GameInstance(kind, n, edges, weights)


def load_instance(path: str) -> GameInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"{path} is nested too deeply to read") from exc
    return instance_from_dict(data)


def dump_instance(inst: GameInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, sort_keys=True)
        fh.write("\n")
