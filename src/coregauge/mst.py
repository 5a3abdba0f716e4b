"""Perturbation-stable approximate-core allocation for spanning-tree games.

Weights are rounded to powers of two, then a merge dendrogram replays
Kruskal's algorithm on the rounded weights of the n minimum spanning
tree edges: each dendrogram node is a connected component at the
rounded weight at which it first appears, and its height is that
weight. Every dendrogram edge whose subtree avoids the supply vertex
spreads the parent height evenly over the agents below it. Averaging
over the rounding offset and rescaling to the true tree cost gives a
4-approximate core allocation whose l1 sensitivity to a single-edge
change is at most 20/ln2 + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .games import ROOT, Allocation, Edge, GameInstance, GameKind
from .matching import normalize_welfare
from .oracles import _slots, _sorted_edge_ids, _UnionFind, mask_of, spanning_edges
from .rounding import (
    BreakpointDecomposition,
    RoundedWeights,
    RoundingSchedule,
    offset_average,
    within_rounding_range,
)

MST_BASE = 2.0


def _require_mst(inst: GameInstance) -> None:
    if inst.kind is not GameKind.MIN_SPANNING_TREE:
        raise ValueError("this allocator requires a spanning-tree game")


def round_weights_mst(weights: Sequence[float], b: float) -> RoundedWeights:
    """Geometric rounding with the base fixed at 2."""
    return RoundingSchedule.of(weights, MST_BASE).at(b)


def breakpoints_mst(weights: Sequence[float]) -> BreakpointDecomposition:
    return RoundingSchedule.of(weights, MST_BASE).decomposition


@dataclass(frozen=True)
class TreeNode:
    id: int
    height: float
    children: tuple[int, ...]
    leaf: int | None  # agent id, ROOT for the supply leaf, None for internal nodes
    agent_mask: int  # bitmask of agent leaves in this subtree
    has_supply: bool


@dataclass(frozen=True)
class AuxiliaryTree:
    """Kruskal merge dendrogram: leaves are the graph vertices, every
    internal node is a component labelled with its merge weight."""

    nodes: tuple[TreeNode, ...]
    top: int

    def parent_edges(self) -> list[tuple[TreeNode, TreeNode]]:
        """(parent, child) pairs for every dendrogram edge."""
        out = []
        for node in self.nodes:
            for c in node.children:
                out.append((node, self.nodes[c]))
        return out

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": node.id,
                    "h": node.height,
                    "children": list(node.children),
                    "leaf": node.leaf,
                }
                for node in self.nodes
            ]
        }


def auxiliary_tree(inst: GameInstance, rounded: Sequence[float]) -> AuxiliaryTree:
    """Merge dendrogram of Kruskal's algorithm on the given weights.

    Equal weights are added simultaneously; every component created by
    such a batch becomes one node whose children are the components it
    swallowed. Equal rounding exponents give bit-identical rounded
    weights, so the batches are formed by exact equality. The nodes of
    one batch are numbered in the order of their smallest child, so node
    ids depend only on the components, not on the edges that formed them.
    """
    _require_mst(inst)
    n = inst.n
    nodes = [TreeNode(v, 0.0, (), v, 1 << v, False) for v in range(n)]
    nodes.append(TreeNode(n, 0.0, (), ROOT, 0, True))
    uf = _UnionFind(n + 1)
    node_of: dict[int, int] = {slot: slot for slot in range(n + 1)}

    order = sorted(range(inst.m), key=lambda eid: (rounded[eid], eid))
    for level, batch in groupby(order, key=lambda eid: rounded[eid]):
        ends = [_slots(inst.edges[eid], n) for eid in batch]
        touched = {uf.find(x) for pair in ends for x in pair}
        for a, b in ends:
            uf.union(a, b)
        clusters: dict[int, list[int]] = {}
        for old in sorted(touched, key=node_of.__getitem__):  # clusters by smallest child
            clusters.setdefault(uf.find(old), []).append(old)
        for new_root, olds in clusters.items():
            if len(olds) < 2:
                continue
            child_ids = [node_of.pop(o) for o in olds]  # ascending
            mask = sum(nodes[c].agent_mask for c in child_ids)  # disjoint subtrees
            supply = any(nodes[c].has_supply for c in child_ids)
            nid = len(nodes)
            nodes.append(TreeNode(nid, level, tuple(child_ids), None, mask, supply))
            node_of[new_root] = nid
    if len(node_of) != 1:
        raise ValueError("graph is not connected; cannot build the merge dendrogram")
    (top,) = node_of.values()
    return AuxiliaryTree(tuple(nodes), top)


def _shares(tree: AuxiliaryTree, n: int) -> list[float]:
    """Every dendrogram edge whose subtree avoids the supply vertex splits
    the parent height evenly over the agents below it. One pass from the
    top carries, per node, what each of its agents got from the edges
    above it; agent v's share is then read at its leaf v."""
    nodes = tree.nodes
    carried = [0.0] * len(nodes)
    for node in reversed(nodes):  # every child id is below its parent's
        for c in node.children:
            child = nodes[c]
            if not child.has_supply:
                carried[c] = carried[node.id] + node.height / child.agent_mask.bit_count()
    return carried[:n]


def connector_sum(tree: AuxiliaryTree, S: Sequence[int] | set[int]) -> float:
    """Telescoped height drop over the minimal subtree joining S and the
    supply leaf, restricted to edges whose subtree avoids the supply."""
    smask = mask_of(S)
    total = 0.0
    for parent_node, child in tree.parent_edges():
        if child.has_supply:
            continue
        if child.agent_mask & smask == 0:
            continue
        total += parent_node.height - child.height
    return total


def _spanning_game(inst: GameInstance, weights: Sequence[float]) -> GameInstance:
    """The n edges Kruskal's algorithm keeps on ``weights``, renumbered
    0..n-1 in the order it takes them.

    Rounding up is monotone, so below every threshold the rounded graph
    and its rounded tree edges have the same components: the merge
    dendrogram at any offset depends on these edges only.
    """
    taken = spanning_edges(inst, (1 << inst.n) - 1, _sorted_edge_ids(inst, weights))
    edges = tuple(Edge(i, inst.edges[eid].u, inst.edges[eid].v) for i, eid in enumerate(taken))
    return GameInstance(inst.kind, inst.n, edges, tuple(weights[eid] for eid in taken))


def offset_dendrogram(inst: GameInstance, weights: Sequence[float], b: float) -> AuxiliaryTree:
    """Merge dendrogram of ``weights`` rounded at offset ``b``, built on
    the n minimum spanning tree edges (see _spanning_game)."""
    _require_mst(inst)
    spanning = _spanning_game(inst, weights)
    try:
        rounded = round_weights_mst(spanning.weights, b).rounded
    except OverflowError:
        raise ValueError("a rounded weight exceeds the float range") from None
    return auxiliary_tree(spanning, rounded)


def mst_allocate(inst: GameInstance, weights: Sequence[float], b: float) -> Allocation:
    """Fixed-offset cost shares from the merge dendrogram at offset ``b``."""
    return Allocation.of(_shares(offset_dendrogram(inst, weights, b), inst.n))


def _tree_integral(spanning: GameInstance) -> Allocation:
    def rule(rounded: Sequence[float]) -> list[float]:
        return _shares(auxiliary_tree(spanning, rounded), spanning.n)

    return offset_average(RoundingSchedule.of(spanning.weights, MST_BASE), rule)


def integrate_mst(inst: GameInstance, weights: Sequence[float]) -> Allocation:
    """Exact average of the fixed-offset shares over offsets in [0, 1].

    Between breakpoints the dendrogram shape is constant and all heights
    scale as 2**b, so one run per interval midpoint integrates exactly.
    Only the n minimum spanning tree edges matter (see _spanning_game).
    """
    _require_mst(inst)
    return _tree_integral(_spanning_game(inst, weights))


def mst_core_allocate(inst: GameInstance, weights: Sequence[float]) -> Allocation:
    """Allocation in the 4-approximate core of the spanning-tree game,
    summing to the true minimum spanning tree cost."""
    _require_mst(inst)
    spanning = _spanning_game(inst, weights)
    raw = _tree_integral(spanning.with_weights(within_rounding_range(spanning.weights)))
    try:
        grand = math.fsum(spanning.weights)
    except OverflowError:
        grand = math.inf
    return normalize_welfare(raw, grand)


MST_CORE_FACTOR = 4.0


def mst_sensitivity_bound() -> float:
    """Guaranteed l1 sensitivity of mst_core_allocate per unit of
    single-edge weight change."""
    return 20.0 / math.log(2.0) + 1.0


def mst_raw_sensitivity_bound() -> float:
    """Sensitivity bound of the unnormalized integral."""
    return 10.0 / math.log(2.0)
