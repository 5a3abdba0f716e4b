"""Perturbation-stable approximate-core allocation for matching games.

The fixed-offset allocator rounds weights geometrically, builds a greedy
maximal matching on the rounded weights, and pays each matched endpoint
its rounded edge weight. Averaging over the rounding offset (an exact
piecewise closed-form integral) and rescaling to the true grand value
yields an allocation whose coalition payout is at least (1/2 - eps)
times the coalition's own matching value, with l1 sensitivity
24/(base-1) + 1 to single-edge weight changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .games import Allocation, GameInstance, GameKind, require_kind
from .oracles import grand_matching_value
from .rounding import breakpoints, offset_average, round_weights, within_rounding_range


@dataclass(frozen=True)
class GreedyTrace:
    """Outcome of one fixed-offset greedy run: the matching and the raw payouts."""

    matching: tuple[int, ...]
    raw: tuple[float, ...]


def _greedy(inst: GameInstance, rounded: Sequence[float]) -> GreedyTrace:
    """Greedy maximal matching on the rounded weights, scanned by decreasing
    rounded weight with ties broken by increasing edge id; both endpoints
    of a matched edge receive its rounded weight."""
    # a stable sort keeps ids ascending among equal weights, reverse=True included
    ranked = sorted([eid for eid in range(inst.m) if rounded[eid] > 0], key=rounded.__getitem__, reverse=True)
    # every scanned weight is positive, so z is nonzero exactly at the covered vertices
    z = [0.0] * inst.n
    matched: list[int] = []
    for eid in ranked:
        e = inst.edges[eid]
        if not z[e.u] and not z[e.v]:
            matched.append(eid)
            z[e.u] = rounded[eid]
            z[e.v] = rounded[eid]
    return GreedyTrace(tuple(matched), tuple(z))


def greedy_allocate(
    inst: GameInstance, weights: Sequence[float], b: float, base: float
) -> GreedyTrace:
    """The greedy run on the weights rounded at offset ``b``."""
    require_kind(inst, GameKind.MATCHING)
    return _greedy(inst, round_weights(weights, b, base))


def integrate_matching(
    inst: GameInstance, weights: Sequence[float], base: float
) -> Allocation:
    """Exact average of the fixed-offset greedy payout over offsets in [0, 1].

    Within each open interval between breakpoints the greedy matching is
    constant and every payout scales as base**b, so one greedy run at the
    interval midpoint integrates in closed form.
    """
    require_kind(inst, GameKind.MATCHING)
    return offset_average(breakpoints(weights, base), lambda rounded: _greedy(inst, rounded).raw)


def normalize_welfare(raw: Allocation, grand: float) -> Allocation:
    """Rescale a nonnegative raw vector so it sums to the grand value. Each
    share is capped at the grand value, which a scale rounded up could
    otherwise push it past, even past the float range."""
    if not 0 <= grand < math.inf:
        raise ValueError(f"grand value must be nonnegative and within the float range, got {grand}")
    norm = raw.total()
    if norm == 0:
        if grand > 0:
            raise ValueError("cannot scale a zero vector to a positive grand value")
        return Allocation.of([0.0] * raw.n)
    scale = grand / norm
    return Allocation.of([min(x * scale, grand) for x in raw.values])


def matching_core_allocate(
    inst: GameInstance, weights: Sequence[float], epsilon: float
) -> Allocation:
    """Allocation in the (1/2 - epsilon)-approximate core of the matching game.

    Uses rounding base 1 + 2*epsilon; the payout sums to the maximum
    matching weight of the whole graph.
    """
    require_kind(inst, GameKind.MATCHING)
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    grand = float(grand_matching_value(inst, weights))  # refuses large n before the integral runs
    raw = integrate_matching(inst, within_rounding_range(weights), 1.0 + 2.0 * epsilon)
    return normalize_welfare(raw, grand)


def matching_core_factor(epsilon: float) -> float:
    """Guaranteed coalition factor of matching_core_allocate."""
    return 0.5 - epsilon


def matching_sensitivity_bound(epsilon: float) -> float:
    """Guaranteed l1 sensitivity of matching_core_allocate per unit of
    single-edge weight change."""
    base = 1.0 + 2.0 * epsilon
    return 24.0 / (base - 1.0) + 1.0


def matching_raw_sensitivity_bound(base: float) -> float:
    """Sensitivity bound of the unnormalized integral for a given base."""
    return 12.0 / (base - 1.0)
