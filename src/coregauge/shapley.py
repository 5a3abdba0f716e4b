"""Exact and sampled Shapley values for both game kinds.

The exact method uses the subset reformulation of the permutation
average, with every coalition value taken from the memoized oracle
table. The sampler averages marginal-contribution vectors over seeded
uniformly random agent orderings and serves as an independent
cross-check of the exact method.
"""

from __future__ import annotations

import math

from .games import Allocation, GameInstance, refuse_past
from .oracles import char_table, lazy_coalition_value

SHAPLEY_EXACT_MAX_AGENTS = 14


def shapley_exact(inst: GameInstance) -> Allocation:
    """Exact Shapley value via the subset sum
    sum_S |S|! (n-1-|S|)! / n! * (value(S + v) - value(S))."""
    n = inst.n
    refuse_past(n, SHAPLEY_EXACT_MAX_AGENTS, "exact Shapley computation")
    if n == 0:
        return Allocation(())
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
    return Allocation.of(values)


def shapley_sample(inst: GameInstance, permutations: int, seed: int) -> Allocation:
    """Unbiased Shapley estimate from seeded random agent orderings."""
    if permutations < 1:
        raise ValueError("at least one permutation is required")
    import numpy as np

    n = inst.n
    rng = np.random.default_rng(seed)
    acc = np.zeros(n)
    # coalition values stay below m * max weight < 2**(e + m.bit_length()),
    # so the sum of `permutations` marginals could pass the float range;
    # scale them down by a power of two, which is exact, and only as far as
    # that bound needs, so that subnormal weights keep their precision
    e = math.frexp(max(inst.weights, default=0.0))[1]
    shift = max(0, e + inst.m.bit_length() + permutations.bit_length() + 1 - 1024)
    value = lazy_coalition_value(inst, inst.weights)  # refuses a game past the oracle's agent limit
    for _ in range(permutations):
        perm = rng.permutation(n)
        mask = 0
        prev = 0.0
        for v in perm:
            mask |= 1 << int(v)
            cur = value(mask)
            acc[v] += math.ldexp(cur - prev, -shift)
            prev = cur
    return Allocation.of(np.ldexp(acc / permutations, shift))


def matching_lower_bound_value(n: int, delta: float) -> float:
    """Certified lower bound on the l1 Shapley gap of the bumped-path
    instance pair: delta * sum of 1/(i+1) over even i in [4, n-1]."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"n must be odd and at least 5, got {n}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    return delta * math.fsum(1.0 / (i + 1) for i in range(4, n, 2))
