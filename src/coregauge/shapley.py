"""Exact and sampled Shapley values for both game kinds.

The exact method uses the subset reformulation of the permutation
average, with every coalition value taken from the memoized oracle
table. The sampler averages marginal-contribution vectors over seeded
uniformly random agent orderings and serves as an independent
cross-check of the exact method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .games import GameInstance
from .oracles import char_table, char_value, agents_of

SHAPLEY_EXACT_MAX_AGENTS = 14


class ShapleyMethod(Enum):
    EXACT_SUBSET_SUM = "exact"
    PERMUTATION_SAMPLE = "sample"


@dataclass(frozen=True)
class ShapleyResult:
    values: tuple[float, ...]
    method: ShapleyMethod
    samples: int | None = None
    seed: int | None = None

    def total(self) -> float:
        return math.fsum(self.values)


def shapley_exact(inst: GameInstance) -> ShapleyResult:
    """Exact Shapley value via the subset sum
    sum_S |S|! (n-1-|S|)! / n! * (value(S + v) - value(S))."""
    n = inst.n
    if n > SHAPLEY_EXACT_MAX_AGENTS:
        raise ValueError(f"exact Shapley computation is limited to {SHAPLEY_EXACT_MAX_AGENTS} agents, got {n}")
    if n == 0:
        return ShapleyResult((), ShapleyMethod.EXACT_SUBSET_SUM)
    table = char_table(inst).values
    coeff = [
        math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n)
        for k in range(n)
    ]
    values = [0.0] * n
    for mask in range(1 << n):
        c = coeff[mask.bit_count()] if mask.bit_count() < n else 0.0
        base = table[mask]
        for v in range(n):
            bit = 1 << v
            if mask & bit:
                continue
            values[v] += c * (table[mask | bit] - base)
    return ShapleyResult(tuple(float(v) for v in values), ShapleyMethod.EXACT_SUBSET_SUM)


def shapley_sample(inst: GameInstance, permutations: int, seed: int) -> ShapleyResult:
    """Unbiased Shapley estimate from seeded random agent orderings."""
    if permutations < 1:
        raise ValueError("at least one permutation is required")
    import numpy as np

    n = inst.n
    rng = np.random.default_rng(seed)
    acc = np.zeros(n)
    cache: dict[int, float] = {0: 0.0}
    for _ in range(permutations):
        perm = rng.permutation(n)
        mask = 0
        prev = 0.0
        for v in perm:
            mask |= 1 << int(v)
            cur = cache.get(mask)
            if cur is None:
                cur = char_value(inst, agents_of(mask))
                cache[mask] = cur
            acc[v] += cur - prev
            prev = cur
    values = acc / permutations
    return ShapleyResult(
        tuple(float(x) for x in values),
        ShapleyMethod.PERMUTATION_SAMPLE,
        samples=permutations,
        seed=seed,
    )


def matching_lower_bound_value(n: int, delta: float) -> float:
    """Certified lower bound on the l1 Shapley gap of the bumped-path
    instance pair: delta * sum of 1/(i+1) over even i in [4, n-1]."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 5, got {n}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return delta * math.fsum(1.0 / (i + 1) for i in range(4, n, 2))
