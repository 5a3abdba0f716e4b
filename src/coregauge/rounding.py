"""Geometric weight rounding and the offset breakpoints it induces.

Every positive weight is snapped up to base**(i + 1 + b) where i is the
unique integer with base**(i + b) <= w < base**(i + 1 + b). As the offset
b sweeps [0, 1] each edge changes exponent exactly once, at the
fractional part of log_base(w); between consecutive such breakpoints the
whole rounded vector scales by a common factor base**b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .games import Allocation

BREAKPOINT_TOL = 1e-12

# Rounding up and summing weights of at most 2**1000 stays finite.
WEIGHT_CAP_EXPONENT = 1000


def rounding_exponent(w: float, b: float, base: float) -> int:
    """The unique integer i with base**(i+b) <= w < base**(i+1+b)."""
    i = math.floor(math.log(w, base) - b)
    # float log can land one off at exact powers; repair to the defining inequality
    while base ** (i + b) > w:
        i -= 1
    while base ** (i + 1 + b) <= w:
        i += 1
    return i


@dataclass(frozen=True)
class RoundedWeights:
    """Rounded weight vector at one offset.

    ``exponents[e]`` is None exactly when the input weight is zero, in
    which case the rounded weight is zero as well.
    """

    exponents: tuple[int | None, ...]
    rounded: tuple[float, ...]


@dataclass(frozen=True)
class BreakpointDecomposition:
    """Sorted offsets 0 = t_0 < ... < t_{k+1} = 1 between which every
    rounding exponent is constant in b."""

    points: tuple[float, ...]

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.points, self.points[1:]))

    def midpoints(self) -> list[float]:
        return [(lo + hi) / 2.0 for lo, hi in self.intervals()]


@dataclass(frozen=True)
class RoundingSchedule:
    """The rounding of one weight vector at every offset in [0, 1].

    Each positive weight's exponent i at offset 0 and the fractional part
    of its log are computed once. At offset b the exponent stays i while
    base**(i + b) <= w and is i - 1 after, so rounding at any offset costs
    one comparison per edge against a power computed once per level.
    """

    base: float
    weights: tuple[float, ...]
    start_exponents: tuple[int | None, ...]
    decomposition: BreakpointDecomposition

    @classmethod
    def of(cls, weights: Sequence[float], base: float) -> "RoundingSchedule":
        """Exponents and breakpoints of ``weights``; fractional logs within
        BREAKPOINT_TOL of each other or of the endpoints are merged."""
        if not 1.0 < base <= 2.0:
            raise ValueError(f"base must lie in (1, 2], got {base}")
        exponents: list[int | None] = []
        interior = set()
        for w in weights:
            if w < 0:
                raise ValueError(f"negative weight {w}")
            if w == 0:
                exponents.append(None)
                continue
            i = rounding_exponent(w, 0.0, base)
            exponents.append(i)
            frac = math.log(w, base) - i
            if BREAKPOINT_TOL < frac < 1.0 - BREAKPOINT_TOL:
                interior.add(frac)
        points = [0.0]
        for t in sorted(interior):
            if t - points[-1] > BREAKPOINT_TOL:
                points.append(t)
        points.append(1.0)  # interior points lie below 1 - BREAKPOINT_TOL
        return cls(base, tuple(weights), tuple(exponents), BreakpointDecomposition(tuple(points)))

    def at(self, b: float) -> RoundedWeights:
        """Exponents and rounded weights at offset ``b``."""
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"offset must lie in [0, 1], got {b}")
        starts = {i for i in self.start_exponents if i is not None}
        levels = {k: self.base ** (k + b) for i in starts for k in (i, i + 1)}
        exponents = tuple(
            i if i is None or levels[i] <= w else i - 1
            for w, i in zip(self.weights, self.start_exponents)
        )
        rounded = tuple(0.0 if i is None else levels[i + 1] for i in exponents)
        return RoundedWeights(exponents, rounded)


def round_weights(weights: Sequence[float], b: float, base: float) -> RoundedWeights:
    """Snap each positive weight up to the next base**(i+1+b) level."""
    return RoundingSchedule.of(weights, base).at(b)


def breakpoints(weights: Sequence[float], base: float) -> BreakpointDecomposition:
    """Offsets at which some edge's rounding exponent changes; zero weights
    contribute nothing."""
    return RoundingSchedule.of(weights, base).decomposition


def offset_average(
    schedule: RoundingSchedule, rule: Callable[[tuple[float, ...]], Sequence[float]]
) -> Allocation:
    """Exact average over offsets b in [0, 1] of ``rule(rounded weights at b)``.

    ``rule`` must be homogeneous of degree one in the rounded vector while
    the exponents stay fixed. Within each interval between breakpoints
    the exponents are constant and the rounded vector scales as base**b,
    so one call at the interval midpoint integrates in closed form.
    """
    base = schedule.base
    log_base = math.log(base)
    total = 0.0
    for lo, hi in schedule.decomposition.intervals():
        mid = (lo + hi) / 2.0
        factor = (base ** (hi - mid) - base ** (lo - mid)) / log_base
        total += np.asarray(rule(schedule.at(mid).rounded), dtype=float) * factor
    return Allocation.of(total)


def within_rounding_range(weights: Sequence[float]) -> Sequence[float]:
    """``weights`` unchanged if none exceeds 2**WEIGHT_CAP_EXPONENT, else
    times the least power of two 2**-s that brings the largest below it.

    The offset average is homogeneous, so an allocator normalized to the
    true grand value gives the same answer on the scaled weights.
    """
    top = max(weights, default=0.0)
    if top <= 2.0**WEIGHT_CAP_EXPONENT:
        return weights
    shift = math.frexp(top)[1] - WEIGHT_CAP_EXPONENT
    return tuple(math.ldexp(w, -shift) for w in weights)


def differing_offset_measure(w_before: float, w_after: float, base: float) -> float:
    """Total length of offsets b at which the two weights round differently.

    Computed from the common breakpoint decomposition of both weights by
    comparing their exponents at each sub-interval midpoint.
    """
    schedule = RoundingSchedule.of((w_before, w_after), base)
    total = 0.0
    for lo, hi in schedule.decomposition.intervals():
        first, second = schedule.at((lo + hi) / 2.0).exponents
        if first != second:
            total += hi - lo
    return total
