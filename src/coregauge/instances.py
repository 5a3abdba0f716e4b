"""Deterministic instance generators: named constructions and seeded
random graphs. Identical parameters always produce bit-identical
instances."""

from __future__ import annotations

import math

import numpy as np

from .games import ROOT, Edge, GameInstance, GameKind, validate_instance


def _checked(inst: GameInstance) -> GameInstance:
    result = validate_instance(inst)
    if not result.ok:
        raise AssertionError(f"generator produced an invalid instance: {result.violations}")
    return inst


def gen_path_uniform(n: int) -> GameInstance:
    """Matching game on a path of n vertices, all edge weights 1."""
    if n < 2:
        raise ValueError(f"a path needs at least 2 vertices, got {n}")
    edges = tuple(Edge(i, i, i + 1) for i in range(n - 1))
    return _checked(GameInstance(GameKind.MATCHING, n, edges, (1.0,) * (n - 1)))


def gen_path_pair_zero_ends(n: int) -> tuple[GameInstance, GameInstance]:
    """Uniform path plus a copy whose first and last edge weights are 0.

    The two instances have unique, disjoint core allocations whose l1
    distance grows linearly in n while the weight vectors differ by 2.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 5, got {n}")
    base = gen_path_uniform(n)
    w = list(base.weights)
    w[0] = 0.0
    w[n - 2] = 0.0
    return base, _checked(base.with_weights(w))


def gen_path_pair_bumped(n: int, delta: float) -> tuple[GameInstance, GameInstance]:
    """Uniform path plus a copy whose second edge weighs 1 + delta."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 5, got {n}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    base = gen_path_uniform(n)
    w = list(base.weights)
    w[1] = 1.0 + delta
    return base, _checked(base.with_weights(w))


def gen_random(
    kind: GameKind, n: int, edge_prob: float, w_max: float, seed: int
) -> GameInstance:
    """Seeded random instance: each vertex pair is an edge with
    probability edge_prob, weights uniform in (0, w_max]. Spanning-tree
    instances always get every supply edge regardless of edge_prob."""
    if n < 1:
        raise ValueError(f"need at least one agent, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    if not 0 < w_max < math.inf:
        raise ValueError(f"w_max must be positive and finite, got {w_max}")
    rng = np.random.default_rng(seed)
    edges: list[Edge] = []
    weights: list[float] = []

    def draw_weight() -> float:
        # uniform on (0, w_max]: flip the half-open interval of random()
        return float(w_max * (1.0 - rng.random()))

    if kind is GameKind.MIN_SPANNING_TREE:
        for v in range(n):
            edges.append(Edge(len(edges), ROOT, v))
            weights.append(draw_weight())
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append(Edge(len(edges), u, v))
                weights.append(draw_weight())
    return _checked(GameInstance(kind, n, tuple(edges), tuple(weights)))
