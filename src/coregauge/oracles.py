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
from typing import Iterable, Sequence

from .games import ROOT, Edge, GameInstance, GameKind, perturb

CHAR_TABLE_MAX_AGENTS = 20

MONOTONICITY_TOL = 1e-9


def mask_of(agents: Iterable[int]) -> int:
    """Bitmask encoding of an agent subset."""
    mask = 0
    for v in agents:
        mask |= 1 << v
    return mask


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
    """Value of every agent subset, indexed by bitmask, in the numeric
    type of ``weights`` (floats, or ints for exact runs).

    Matching games run one subset DP: the lowest agent of a mask is
    either unmatched or matched to a neighbour inside the mask. Tree
    games run Kruskal once per mask over one presorted edge order.
    Refuses more than CHAR_TABLE_MAX_AGENTS agents.
    """
    if inst.n > CHAR_TABLE_MAX_AGENTS:
        raise ValueError(f"coalition enumeration is limited to {CHAR_TABLE_MAX_AGENTS} agents, got {inst.n}")
    size = 1 << inst.n
    values: list = [0] * size
    if inst.kind is GameKind.MATCHING:
        adj: list[list[tuple[int, object]]] = [[] for _ in range(inst.n)]
        for e in inst.edges:
            if e.u != ROOT and e.v != ROOT:
                adj[e.u].append((e.v, weights[e.id]))
                adj[e.v].append((e.u, weights[e.id]))
        for mask in range(1, size):
            v = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << v)
            best = values[rest]
            for u, w in adj[v]:
                ubit = 1 << u
                if rest & ubit:
                    cand = w + values[rest ^ ubit]
                    if cand > best:
                        best = cand
            values[mask] = best
        return values
    order = _sorted_edge_ids(inst, weights)
    for smask in range(1, size):
        values[smask] = _mst_value(inst, weights, smask, order)
    return values


def max_weight_matching(inst: GameInstance, S: Iterable[int]) -> float:
    """Exact maximum matching weight of the subgraph induced by S.

    Runs the subset DP of ``coalition_values`` on G[S] renumbered
    0..|S|-1, so the work is 2^|S|, not 2^n, and the agent limit of
    ``coalition_values`` applies to |S|.
    """
    if inst.kind is not GameKind.MATCHING:
        raise ValueError("max_weight_matching requires a matching game")
    if isinstance(S, range) and S == range(inst.n):  # the grand coalition: no set of n agents
        return float(coalition_values(inst, inst.weights)[-1])
    members = sorted(set(S))
    if any(not 0 <= v < inst.n for v in members):
        raise ValueError(f"subset {members} contains non-agent ids")
    local = {v: i for i, v in enumerate(members)}
    kept = [e for e in inst.edges if e.u in local and e.v in local]
    edges = tuple([Edge(i, local[e.u], local[e.v]) for i, e in enumerate(kept)])
    sub = GameInstance(inst.kind, len(members), edges, tuple([inst.weights[e.id] for e in kept]))
    return float(coalition_values(sub, sub.weights)[-1])


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _slots(e: Edge, n: int) -> tuple[int, int]:
    """Union-find slots of an edge's endpoints; the supply vertex is slot n."""
    return (n if e.u == ROOT else e.u, n if e.v == ROOT else e.v)


def _sorted_edge_ids(inst: GameInstance, weights: Sequence) -> list[int]:
    return sorted(range(inst.m), key=lambda eid: (weights[eid], eid))


def _mst_value(inst: GameInstance, weights: Sequence, smask: int, order: Sequence[int]):
    """Spanning tree weight of G[S + root]: Kruskal takes edges from
    ``order`` (edge ids sorted by weight, ties by id), sums them in the
    order it takes them, and stops once it has |S| of them."""
    n = inst.n
    inside = smask | 1 << n  # the supply vertex is union-find slot n
    needed = smask.bit_count()
    uf = _UnionFind(n + 1)
    total = 0
    for eid in order:
        if not needed:
            break
        a, b = _slots(inst.edges[eid], n)
        if (inside >> a) & (inside >> b) & 1 and uf.union(a, b):
            total = total + weights[eid]
            needed -= 1
    if needed:
        raise ValueError("induced subgraph is not connected through the root")
    return total


def mst_weight(inst: GameInstance, S: Iterable[int]) -> float:
    """Exact minimum spanning tree weight of the subgraph induced by S + root."""
    if inst.kind is not GameKind.MIN_SPANNING_TREE:
        raise ValueError("mst_weight requires a spanning-tree game")
    smask = mask_of(S)
    if smask >> inst.n:
        raise ValueError("subset contains non-agent ids")
    return float(_mst_value(inst, inst.weights, smask, _sorted_edge_ids(inst, inst.weights)))


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
    if inst.kind is not GameKind.MIN_SPANNING_TREE:
        raise ValueError("marginal_monotonicity_check requires a spanning-tree game")
    bumped = inst.with_weights(perturb(inst.weights, f, delta))  # rejects delta <= 0 and unknown f
    members = set(S)
    if v in members or not 0 <= v < inst.n:
        raise ValueError(f"{v} must be an agent outside S")
    if inst.edges[f].u not in members or inst.edges[f].v not in members:
        raise ValueError(f"edge {f} must have both endpoints in S")
    with_v = members | {v}
    lhs = mst_weight(bumped, with_v) - mst_weight(inst, with_v)
    rhs = mst_weight(bumped, members) - mst_weight(inst, members)
    return lhs <= rhs + MONOTONICITY_TOL
