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

from .games import Allocation

BREAKPOINT_TOL = 1e-12

# Rounding up and summing weights of at most 2**1000 stays finite.
WEIGHT_CAP_EXPONENT = 1000


def _power(base: float, x: float) -> float:
    """base**x, or inf where it is past the float range."""
    try:
        return base**x
    except OverflowError:
        return math.inf


def rounding_exponent(w: float, b: float, base: float) -> int:
    """The unique integer i with base**(i+b) <= w < base**(i+1+b); a power
    past the float range counts as above every finite weight."""
    i = math.floor(math.log(w, base) - b)
    # float log can land one off at exact powers; repair to the defining inequality
    while _power(base, i + b) > w:
        i -= 1
    while _power(base, i + 1 + b) <= w:
        i += 1
    return i


@dataclass(frozen=True)
class RoundingSchedule:
    """The rounding of one weight vector at every offset in [0, 1].

    ``points`` are the sorted offsets 0 = t_0 < ... < t_{k+1} = 1 between
    which every rounding exponent is constant in b. Each positive
    weight's exponent i at offset 0 is kept; at offset b the exponent
    stays i while base**(i + b) <= w and is i - 1 after, so rounding at
    any offset costs one comparison per edge against a power computed
    once per level.
    """

    base: float
    weights: tuple[float, ...]
    start_exponents: tuple[int | None, ...]
    points: tuple[float, ...]

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.points, self.points[1:]))

    def midpoints(self) -> list[float]:
        return [(lo + hi) / 2.0 for lo, hi in self.intervals()]


def _level_keys(start_exponents: Sequence[int | None]) -> set[int]:
    """The exponents k whose level base**(k + b) some weight can round to or
    be compared with: each start exponent and the one above it."""
    return {k for i in start_exponents if i is not None for k in (i, i + 1)}


def _snap(weights: Sequence[float], start_exponents: Sequence[int | None], levels: dict) -> list:
    """The rounding rule at one offset, written once. A positive weight with
    start exponent i keeps it while levels[i] = base**(i + b) <= w and has
    exponent i - 1 after; it rounds up to levels[exponent + 1], refused if
    that is inf (past the float range). A zero weight rounds to 0.0."""
    rounded = [
        0.0 if i is None else levels[i + 1] if levels[i] <= w else levels[i]
        for w, i in zip(weights, start_exponents)
    ]
    if math.inf in rounded:
        raise ValueError("a rounded weight exceeds the float range")
    return rounded


def _start_exponents(weights: Sequence[float], base: float) -> list[int | None]:
    """Each weight's rounding exponent at offset 0, None for a zero weight."""
    if not 1.0 < base <= 2.0:
        raise ValueError(f"base must lie in (1, 2], got {base}")
    exponents: list[int | None] = []
    for w in weights:
        if not 0 <= w < math.inf:
            raise ValueError(f"negative weight {w}" if w < 0 else f"weight {w} is not finite")
        exponents.append(rounding_exponent(w, 0.0, base) if w else None)
    return exponents


def breakpoints(weights: Sequence[float], base: float) -> RoundingSchedule:
    """The rounding schedule of ``weights``: the offsets at which some
    edge's rounding exponent changes, and each exponent at offset 0.
    Zero weights contribute no breakpoint; fractional logs within
    BREAKPOINT_TOL of each other or of the endpoints are merged."""
    exponents = _start_exponents(weights, base)
    interior = set()
    for w, i in zip(weights, exponents):
        if i is not None:
            frac = math.log(w, base) - i
            if BREAKPOINT_TOL < frac < 1.0 - BREAKPOINT_TOL:
                interior.add(frac)
    points = [0.0]
    for t in sorted(interior):
        if t - points[-1] > BREAKPOINT_TOL:
            points.append(t)
    points.append(1.0)  # interior points lie below 1 - BREAKPOINT_TOL
    return RoundingSchedule(base, tuple(weights), tuple(exponents), tuple(points))


def round_weights(weights: Sequence[float], b: float, base: float) -> tuple[float, ...]:
    """The weights rounded at offset ``b``: a positive weight snaps up to
    base**(i + 1 + b), i its ``rounding_exponent`` at ``b``; a zero stays 0.0."""
    starts = _start_exponents(weights, base)
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"offset must lie in [0, 1], got {b}")
    levels = {k: _power(base, k + b) for k in _level_keys(starts)}
    # tuple(<list>) is built at its exact size; tuple(<generator>) grows by
    # resizing, which leaves CPython's per-size tuple freelists full
    return tuple(_snap(weights, starts, levels))


def offset_average(
    schedule: RoundingSchedule, rule: Callable[[Sequence[float]], Sequence[float]]
) -> Allocation:
    """Exact average over offsets b in [0, 1] of ``rule(rounded weights at b)``.

    ``rule`` must be homogeneous of degree one in the rounded vector while
    the exponents stay fixed. Within each interval between breakpoints
    the exponents are constant and the rounded vector scales as base**b,
    so one call at the interval midpoint integrates in closed form.
    """
    base = schedule.base
    log_base = math.log(base)
    weights, starts = schedule.weights, schedule.start_exponents
    top = max(weights, default=0.0)  # w rounds to at most base * w at any offset
    if top and _power(base, math.log(top, base) + 1.0) == math.inf:
        raise ValueError("a rounded weight exceeds the float range")
    keys = _level_keys(starts)
    total: list[float] = []
    for lo, hi in schedule.intervals():
        mid = (lo + hi) / 2.0
        factor = (base ** (hi - mid) - base ** (lo - mid)) / log_base
        levels = {k: _power(base, k + mid) for k in keys}
        part = [x * factor for x in rule(_snap(weights, starts, levels))]
        # a running sum in interval order: from Python 3.12 sum() compensates floats
        total = [t + x for t, x in zip(total, part)] if total else part
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
    return tuple([math.ldexp(w, -shift) for w in weights])


def differing_offset_measure(w_before: float, w_after: float, base: float) -> float:
    """Total length of offsets b at which the two weights round differently.

    Computed from the common rounding schedule of both weights by
    comparing their rounding exponents at each sub-interval midpoint, so
    no rounded level is formed and no finite pair is refused. A zero
    weight rounds differently from every positive one, and two zeros
    round alike.
    """
    pair = (w_before, w_after)
    total = 0.0
    for lo, hi in breakpoints(pair, base).intervals():
        mid = (lo + hi) / 2.0
        first, second = [rounding_exponent(w, mid, base) if w else None for w in pair]
        if first != second:
            total += hi - lo
    return total
