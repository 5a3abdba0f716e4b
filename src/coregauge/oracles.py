"""Exact characteristic-function evaluation for both game kinds.

The value of a coalition S is the optimum of the underlying problem on
the induced substructure: maximum matching weight of G[S], or minimum
spanning tree weight of G[S + root]. Both oracles are exact; the
matching side uses a dynamic program over vertex subsets, the tree side
Kruskal with union-find. The helpers are generic over the numeric type
of the weights so that exact integer runs reuse the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from .games import ROOT, Edge, GameInstance, GameKind, perturb, refuse_past, require_kind

CHAR_TABLE_MAX_AGENTS = 20

MONOTONICITY_TOL = 1e-9


def mask_of(agents: Iterable[int], n: int) -> int:
    """Bitmask encoding of a subset of agents 0..n-1: the package's one
    coalition check, which refuses any other id, the supply vertex included."""
    members = set(agents)
    if any(not 0 <= v < n for v in members):
        raise ValueError(f"subset {sorted(members)} contains non-agent ids")
    return sum(1 << v for v in members)


def agents_of(mask: int) -> tuple[int, ...]:
    """Sorted agent ids encoded in a bitmask."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def coalition_values(inst: GameInstance, weights: Sequence) -> list:
    """Value of every agent subset, indexed by bitmask, in the numeric type
    of ``weights`` (floats, or ints for exact runs): the table driver, with
    matching masks filled in increasing order by ``_matching_best`` and tree
    masks by one Kruskal each. Refuses more than CHAR_TABLE_MAX_AGENTS agents."""
    refuse_past(inst.n, CHAR_TABLE_MAX_AGENTS, "coalition enumeration")
    size = 1 << inst.n
    values: list = [0] * size
    if inst.kind is GameKind.MATCHING:
        adj = _adjacency(inst.edges, weights, size - 1)
        for mask in range(1, size):
            values[mask] = _matching_best(mask, adj, values)
        return values
    order = list(_kruskal_order(inst, weights))
    for smask in range(1, size):
        values[smask] = _mst_value(order, smask, inst.n)
    return values


def _adjacency(edges: Iterable[Edge], weights: Sequence, mask: int) -> list:
    """Neighbour lists (neighbour, weight) of G[mask] by agent id, in edge order."""
    adj: list[list[tuple[int, object]]] = [[] for _ in range(mask.bit_length())]
    for e in edges:
        if mask >> e.u & 1 and mask >> e.v & 1:
            w = weights[e.id]
            adj[e.u].append((e.v, w))
            adj[e.v].append((e.u, w))
    return adj


def _matching_best(mask: int, adj: list, values) -> object:
    """The matching recurrence, one body for both drivers: the lowest agent
    of ``mask`` is unmatched or matched to a neighbour inside it; ``values``
    holds the smaller masks."""
    v = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << v)
    best = values[rest]
    for u, w in adj[v]:
        ubit = 1 << u
        if rest & ubit:
            cand = w + values[rest ^ ubit]
            if cand > best:
                best = cand
    return best


class _MatchingValues(dict):
    """The single-value driver: matching values by bitmask, each computed by
    ``_matching_best`` on its first read and kept (at most 2^|mask| of them)."""

    __slots__ = ("adj",)

    def __init__(self, adj: list):
        self[0] = 0
        self.adj = adj

    def __missing__(self, mask: int):
        best = self[mask] = _matching_best(mask, self.adj, self)
        return best


def lazy_coalition_value(inst: GameInstance, weights: Sequence) -> Callable[[int], object]:
    """The value of a coalition by bitmask, computed on its first read and
    kept: ``coalition_values(inst, weights)[mask]`` bit for bit, at most 2^n
    values held. Matching games keep the agent limit of ``coalition_values``;
    tree games, one Kruskal per mask over one presorted edge order, have none."""
    if inst.kind is GameKind.MATCHING:
        refuse_past(inst.n, CHAR_TABLE_MAX_AGENTS, "coalition enumeration")
        return _MatchingValues(_adjacency(inst.edges, weights, (1 << inst.n) - 1)).__getitem__
    return cache(partial(_mst_value, list(_kruskal_order(inst, weights)), n=inst.n))


def max_weight_matching(inst: GameInstance, S: Iterable[int]) -> float:
    """Exact maximum matching weight of the subgraph induced by S, from the
    single-value driver: the work is at most 2^|S|, not 2^n, and the agent
    limit of ``coalition_values`` applies to |S|."""
    require_kind(inst, GameKind.MATCHING, "max_weight_matching")
    mask = mask_of(S, inst.n)
    refuse_past(mask.bit_count(), CHAR_TABLE_MAX_AGENTS, "coalition enumeration")
    return float(_MatchingValues(_adjacency(inst.edges, inst.weights, mask))[mask])


def _kruskal_order(inst: GameInstance, weights: Sequence) -> Iterator[tuple]:
    """Edges sorted by weight, ties by id, each as (end mask, a, b, w):
    a and b are the union-find slots of its ends, the supply vertex slot n.
    Lazy, so that one Kruskal run prepares only the edges it reaches."""
    n = inst.n
    for eid in sorted(range(inst.m), key=weights.__getitem__):  # stable: ties by id
        e = inst.edges[eid]
        a = n if e.u == ROOT else e.u
        b = n if e.v == ROOT else e.v
        yield 1 << a | 1 << b, a, b, weights[eid]


def _mst_value(order: Iterable[tuple], smask: int, n: int, merges: list | None = None):
    """Spanning tree weight of G[S + root]: Kruskal takes edges from
    ``order`` (see ``_kruskal_order``), sums them in the order it takes
    them, and stops once it has |S| of them. The package's one Kruskal
    loop: given a ``merges`` list, it appends each merge as (weight, kept
    root, absorbed root), the record ``mst.auxiliary_tree`` builds from."""
    inside = smask | 1 << n  # the supply vertex is union-find slot n
    needed = smask.bit_count()
    parent = list(range(n + 1))
    total = 0
    for ends, a, b, w in order:
        if not needed:
            break
        if ends & inside != ends:
            continue
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            total = total + w
            needed -= 1
            if merges is not None:
                merges.append((w, a, b))
    if needed:
        raise ValueError("induced subgraph is not connected through the root")
    return total


def mst_weight(inst: GameInstance, S: Iterable[int]) -> float:
    """Exact minimum spanning tree weight of the subgraph induced by S + root."""
    require_kind(inst, GameKind.MIN_SPANNING_TREE, "mst_weight")
    return float(_mst_value(_kruskal_order(inst, inst.weights), mask_of(S, inst.n), inst.n))


def char_value(inst: GameInstance, S: Iterable[int]) -> float:
    """Coalition value: dispatches on the game kind; the empty set is worth 0."""
    if inst.kind is GameKind.MATCHING:
        return max_weight_matching(inst, S)
    return mst_weight(inst, S)


@dataclass(frozen=True)
class CharTable:
    """Coalition values for every subset, indexed by bitmask over agents."""

    game: GameInstance
    values: list[float]

    @property
    def grand(self) -> float:
        return self.values[-1]


def char_table(inst: GameInstance) -> CharTable:
    """All 2^n coalition values, within the agent limit of ``coalition_values``."""
    return CharTable(inst, [float(v) for v in coalition_values(inst, inst.weights)])


def marginal_monotonicity_check(
    inst: GameInstance, f: int, delta: float, v: int, S: Iterable[int]
) -> bool:
    """Executable witness that raising one edge weight helps a larger
    coalition no more than it helps the smaller one.

    Compares the increase of the coalition value of S and of S + v when
    edge f (with both endpoints inside S) is made ``delta`` heavier.
    """
    require_kind(inst, GameKind.MIN_SPANNING_TREE, "marginal_monotonicity_check")
    bumped = inst.with_weights(perturb(inst.weights, f, delta))  # rejects delta <= 0 and unknown f
    members = set(S)
    if v in members or not 0 <= v < inst.n:
        raise ValueError(f"{v} must be an agent outside S")
    if inst.edges[f].u not in members or inst.edges[f].v not in members:
        raise ValueError(f"edge {f} must have both endpoints in S")
    rhs = mst_weight(bumped, members) - mst_weight(inst, members)  # first, so that a refusal names S
    lhs = mst_weight(bumped, members | {v}) - mst_weight(inst, members | {v})
    return lhs <= rhs + MONOTONICITY_TOL
