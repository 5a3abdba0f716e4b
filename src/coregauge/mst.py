"""Perturbation-stable approximate-core allocation for spanning-tree games.

Weights are rounded to powers of two, then a merge dendrogram replays
Kruskal's algorithm on the rounded weights: each dendrogram node is a
connected component at the rounded weight at which it first appears,
and its height is that weight. Every dendrogram edge whose subtree
avoids the supply vertex spreads the parent height evenly over the
agents below it. Rounding up is monotone, so the dendrogram at every
offset is a coarsening of the one dendrogram of the exact weights, and
one Kruskal run builds either. Averaging over the rounding offset
and rescaling to the true tree cost gives a 4-approximate core
allocation whose l1 sensitivity to a single-edge change is at most
20/ln2 + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .games import ROOT, Allocation, GameInstance, GameKind, require_kind
from .matching import normalize_welfare
from .oracles import _kruskal_order, _mst_value, mask_of
from .rounding import breakpoints, offset_average, round_weights, within_rounding_range

MST_BASE = 2.0


class TreeNode(NamedTuple):
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

    nodes: tuple[TreeNode, ...]  # the top, the last merge, comes last
    cost: float  # the merge weights summed in Kruskal's order, as mst_weight sums them

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


def auxiliary_tree(inst: GameInstance, weights: Sequence[float], b: float | None = None) -> AuxiliaryTree:
    """Merge dendrogram of Kruskal's algorithm on ``weights``, or on them
    rounded at offset ``b``, and its tree cost, from one run of the
    oracle's Kruskal loop (``_mst_value``) over all agents that records its
    merges. Rounding up is monotone, so that run's order and tree serve
    every offset: each merge takes its weight rounded at ``b``, and no
    other edge is rounded, so an unused heavy edge cannot pass the float range.

    Merges of equal weight form one batch; every component a batch
    creates becomes one node whose children, ascending, are the
    components it swallowed. Equal rounding exponents give bit-identical
    rounded weights, so batches are formed by exact equality. The nodes
    of one batch are numbered in the order of their smallest child, so
    node ids depend only on the components, not on the edges that formed
    them."""
    require_kind(inst, GameKind.MIN_SPANNING_TREE)
    n = inst.n
    merges: list[tuple] = []
    try:
        _mst_value(_kruskal_order(inst, weights), (1 << n) - 1, n, merges)
    except ValueError:
        raise ValueError("graph is not connected; cannot build the merge dendrogram") from None
    if b is not None:
        rounded = round_weights([w for w, _, _ in merges], b, MST_BASE)
        merges = [(w, a, r) for w, (_, a, r) in zip(rounded, merges)]
    cost = 0.0
    for w, _, _ in merges:  # a running sum: from Python 3.12 sum() compensates floats
        cost += w
    nodes = [TreeNode(v, 0.0, (), v, 1 << v, False) for v in range(n)]
    nodes.append(TreeNode(n, 0.0, (), ROOT, 0, True))
    node_of = list(range(n + 1))  # dendrogram node of each union-find root; the supply is slot n
    for level, batch in groupby(merges, key=itemgetter(0)):
        absorbed: dict[int, list[int]] = {}  # surviving root -> child nodes
        for _, a, r in batch:
            kids = absorbed.setdefault(a, [node_of[a]])
            kids += absorbed.pop(r, None) or [node_of[r]]
        # disjoint sorted lists compare by their smallest child
        for kids, root in sorted((sorted(kids), root) for root, kids in absorbed.items()):
            nid = len(nodes)
            mask = sum(nodes[c].agent_mask for c in kids)  # disjoint subtrees
            supply = any(nodes[c].has_supply for c in kids)
            nodes.append(TreeNode(nid, level, tuple(kids), None, mask, supply))
            node_of[root] = nid
    return AuxiliaryTree(tuple(nodes), cost)


def _heights(tree: AuxiliaryTree) -> tuple[float, ...]:
    return tuple([node.height for node in tree.nodes])


def _shares(tree: AuxiliaryTree, rounded: Sequence[float], n: int) -> list[float]:
    """Fixed-offset shares, with node i of ``tree`` at rounded height
    ``rounded[i]``. The rounded dendrogram is this one with every child
    that rounds to its parent's height merged into the parent.
    Each of its edges whose subtree avoids the supply vertex splits the
    parent height evenly over the agents below it. One pass from the top
    carries, per node, what each of its agents got from the edges above
    it (a merged child carries its parent's); agent v's share is read at
    its leaf v."""
    nodes = tree.nodes
    carried = [rounded[0]] * len(nodes)  # node 0 is a leaf: height zero, in the heights' own type
    for node in reversed(nodes):  # every child id is below its parent's
        height = rounded[node.id]
        for c in node.children:
            if rounded[c] == height:  # equal exponents give bit-identical heights
                carried[c] = carried[node.id]
            elif not nodes[c].has_supply:
                carried[c] = carried[node.id] + height / nodes[c].agent_mask.bit_count()
    return carried[:n]


def connector_sum(tree: AuxiliaryTree, S: Iterable[int]) -> float:
    """Telescoped height drop over the minimal subtree joining S and the
    supply leaf, restricted to edges whose subtree avoids the supply."""
    smask = mask_of(S, tree.nodes[-1].agent_mask.bit_length())  # the top holds every agent
    total = 0.0
    for node in tree.nodes:
        for c in node.children:
            child = tree.nodes[c]
            if not child.has_supply and child.agent_mask & smask:
                total += node.height - child.height
    return total


def mst_allocate(inst: GameInstance, weights: Sequence[float], b: float) -> Allocation:
    """Fixed-offset cost shares, paid on the dendrogram at offset ``b``."""
    tree = auxiliary_tree(inst, weights, b)
    return Allocation.of(_shares(tree, _heights(tree), inst.n))


def _tree_integral(tree: AuxiliaryTree, heights: Sequence[float], n: int) -> Allocation:
    return offset_average(breakpoints(heights, MST_BASE), lambda r: _shares(tree, r, n))


def integrate_mst(inst: GameInstance, weights: Sequence[float]) -> Allocation:
    """Exact average of the fixed-offset shares over offsets in [0, 1].

    Every offset's dendrogram coarsens the one exact-weight dendrogram,
    built once. Between breakpoints of its heights the coarsening is
    constant and all rounded heights scale as 2**b, so one pass per
    interval midpoint integrates exactly.
    """
    tree = auxiliary_tree(inst, weights)
    return _tree_integral(tree, _heights(tree), inst.n)


def mst_core_allocate(inst: GameInstance, weights: Sequence[float]) -> Allocation:
    """Allocation in the 4-approximate core of the spanning-tree game,
    summing to the true minimum spanning tree cost."""
    tree = auxiliary_tree(inst, weights)
    raw = _tree_integral(tree, within_rounding_range(_heights(tree)), inst.n)
    return normalize_welfare(raw, tree.cost)


MST_CORE_FACTOR = 4.0


def mst_sensitivity_bound() -> float:
    """Guaranteed l1 sensitivity of mst_core_allocate per unit of
    single-edge weight change."""
    return 20.0 / math.log(2.0) + 1.0


def mst_raw_sensitivity_bound() -> float:
    """Sensitivity bound of the unnormalized integral."""
    return 10.0 / math.log(2.0)
