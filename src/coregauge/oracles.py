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
from typing import Iterable, Iterator, Sequence

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


def _refuse_past_limit(n: int) -> None:
    if n > CHAR_TABLE_MAX_AGENTS:
        raise ValueError(f"coalition enumeration is limited to {CHAR_TABLE_MAX_AGENTS} agents, got {n}")


def coalition_values(inst: GameInstance, weights: Sequence) -> list:
    """Value of every agent subset, indexed by bitmask, in the numeric
    type of ``weights`` (floats, or ints for exact runs).

    Matching games run one subset DP: the lowest agent of a mask is
    either unmatched or matched to a neighbour inside the mask. Tree
    games run Kruskal once per mask over one presorted edge order.
    Refuses more than CHAR_TABLE_MAX_AGENTS agents.
    """
    _refuse_past_limit(inst.n)
    size = 1 << inst.n
    values: list = [0] * size
    if inst.kind is GameKind.MATCHING:
        adj = _adjacency(inst.edges, weights, range(inst.n))
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
    order = list(_kruskal_order(inst, weights))
    for smask in range(1, size):
        values[smask] = _mst_value(order, smask, inst.n)
    return values


def _adjacency(edges: Iterable[Edge], weights: Sequence, members: Sequence[int]) -> list:
    """Neighbour lists of G[members] renumbered 0..len(members)-1, in
    edge order, each entry (neighbour, weight)."""
    local = {v: i for i, v in enumerate(members)}
    adj: list[list[tuple[int, object]]] = [[] for _ in local]
    for e in edges:
        if e.u in local and e.v in local:
            a, b, w = local[e.u], local[e.v], weights[e.id]
            adj[a].append((b, w))
            adj[b].append((a, w))
    return adj


def _matching_value(mask: int, adj: list, memo: dict):
    """Value of ``mask`` by the recurrence of ``coalition_values``, with the
    same additions and comparisons in the same order, evaluated only at
    the masks the grand coalition reaches."""
    got = memo.get(mask)
    if got is not None:
        return got
    v = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << v)
    best = _matching_value(rest, adj, memo)
    for u, w in adj[v]:
        ubit = 1 << u
        if rest & ubit:
            cand = w + _matching_value(rest ^ ubit, adj, memo)
            if cand > best:
                best = cand
    memo[mask] = best
    return best


def grand_matching_value(inst: GameInstance, weights: Sequence, members: Sequence[int] | None = None):
    """``coalition_values(...)[-1]`` bit for bit, of G[members] (default:
    every agent), without filling the other masks; the same agent limit."""
    agents = range(inst.n) if members is None else members
    _refuse_past_limit(len(agents))
    adj = _adjacency(inst.edges, weights, agents)
    return _matching_value((1 << len(adj)) - 1, adj, {0: 0})


def max_weight_matching(inst: GameInstance, S: Iterable[int]) -> float:
    """Exact maximum matching weight of the subgraph induced by S.

    Evaluates the subset DP of ``coalition_values`` on G[S] renumbered
    0..|S|-1, so the work is at most 2^|S|, not 2^n, and the agent limit
    of ``coalition_values`` applies to |S|.
    """
    if inst.kind is not GameKind.MATCHING:
        raise ValueError("max_weight_matching requires a matching game")
    if isinstance(S, range) and S == range(inst.n):  # the grand coalition: no set of n agents
        return float(grand_matching_value(inst, inst.weights))
    members = sorted(set(S))
    if any(not 0 <= v < inst.n for v in members):
        raise ValueError(f"subset {members} contains non-agent ids")
    return float(grand_matching_value(inst, inst.weights, members))


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
    if inst.kind is not GameKind.MIN_SPANNING_TREE:
        raise ValueError("mst_weight requires a spanning-tree game")
    smask = mask_of(S)
    if smask >> inst.n:
        raise ValueError("subset contains non-agent ids")
    return float(_mst_value(_kruskal_order(inst, inst.weights), smask, inst.n))


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
