"""Shared brute-force oracles and instance builders.

The oracles here never reuse package shortcuts: matchings are enumerated
over all edge subsets and spanning trees over all edge combinations, so
they stay independent of the code under test.
"""

from __future__ import annotations

import math
from itertools import combinations

from coregauge.games import ROOT, Edge, GameInstance, GameKind


def matching_instance(n: int, weighted_edges: list[tuple[int, int, float]]) -> GameInstance:
    edges = tuple(Edge(i, u, v) for i, (u, v, _) in enumerate(weighted_edges))
    weights = tuple(float(w) for _, _, w in weighted_edges)
    return GameInstance(GameKind.MATCHING, n, edges, weights)


def mst_instance(n: int, weighted_edges: list[tuple[int, int, float]]) -> GameInstance:
    edges = tuple(Edge(i, u, v) for i, (u, v, _) in enumerate(weighted_edges))
    weights = tuple(float(w) for _, _, w in weighted_edges)
    return GameInstance(GameKind.MIN_SPANNING_TREE, n, edges, weights)


def brute_max_matching(inst: GameInstance, S) -> float:
    """Maximum matching weight of G[S] by enumerating all edge subsets."""
    members = set(S)
    usable = [e for e in inst.edges if e.u in members and e.v in members]
    best = 0.0
    for k in range(len(usable) + 1):
        for combo in combinations(usable, k):
            seen: set[int] = set()
            ok = True
            for e in combo:
                if e.u in seen or e.v in seen:
                    ok = False
                    break
                seen.add(e.u)
                seen.add(e.v)
            if ok:
                best = max(best, math.fsum(inst.weights[e.id] for e in combo))
    return best


def brute_mst(inst: GameInstance, S) -> float:
    """Minimum spanning tree weight of G[S + root] by enumerating all
    edge subsets of the right cardinality and testing connectivity."""
    members = set(S)
    if not members:
        return 0.0
    vertices = members | {ROOT}
    usable = [e for e in inst.edges if e.u in vertices and e.v in vertices]
    k = len(vertices) - 1
    best = None
    for combo in combinations(usable, k):
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parts = len(vertices)
        for e in combo:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[ru] = rv
                parts -= 1
        if parts == 1:
            total = math.fsum(inst.weights[e.id] for e in combo)
            if best is None or total < best:
                best = total
    if best is None:
        raise AssertionError("no spanning tree exists")
    return best


def brute_shapley(inst: GameInstance, char) -> list[float]:
    """Shapley values by full permutation enumeration."""
    from itertools import permutations

    n = inst.n
    totals = [0.0] * n
    count = 0
    for perm in permutations(range(n)):
        prefix: set[int] = set()
        prev = 0.0
        for v in perm:
            prefix.add(v)
            cur = char(inst, prefix)
            totals[v] += cur - prev
            prev = cur
        count += 1
    return [t / count for t in totals]
