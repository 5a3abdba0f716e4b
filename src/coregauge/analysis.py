"""Verification engines: coalition-enumeration core checks, exact core
witnesses for small instances, and empirical sensitivity probing.

Reports are plain data; nothing here asserts. The test suite and the
CLI decide what a failing report means.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .games import Allocation, GameInstance, GameKind, l1_distance, perturb, refuse_past
from .matching import integrate_matching, matching_core_allocate
from .mst import integrate_mst, mst_core_allocate
from .oracles import CharTable, agents_of, char_table, coalition_values
from .shapley import shapley_exact
from .exactlp import solve_scaled

CORE_CHECK_MAX_AGENTS = 16
EXACT_SOLVE_MAX_AGENTS = 12

SLACK_TOL = 1e-6
GRAND_TOL = 1e-9
PROBE_EXPONENTS = (0, 1, 2, 3)


@dataclass(frozen=True)
class CoreReport:
    alpha: float
    direction: str  # "welfare_lower" for matching games, "cost_upper" for tree games
    worst_subset: tuple[int, ...]
    worst_slack: float
    grand_residual: float
    passed: bool

    def to_dict(self) -> dict:
        """The report as JSON data: a slack or residual that is not finite
        (beyond the float range from a relaxed bound past it, or NaN from
        an infinite allocation against an infinite cost) is None, JSON null."""
        return {
            "alpha": self.alpha,
            "direction": self.direction,
            "worst_subset": list(self.worst_subset),
            "worst_slack": _none_if_not_finite(self.worst_slack),
            "grand_residual": _none_if_not_finite(self.grand_residual),
            "pass": self.passed,
        }


def _none_if_not_finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _subset_sums(values: Sequence) -> list:
    """sums[mask] = sum of values over the agents in mask, for all masks;
    ints stay exact."""
    sums: list = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def _slacks(kind: GameKind, values: Sequence, allocated: Sequence, alpha: float) -> tuple[list, list]:
    """Allocated sums and relaxed-constraint slacks of every coalition, by
    mask; int values, allocations and alpha stay exact. A float sum or
    product beyond the float range is infinite."""
    sums = _subset_sums(allocated)
    if kind is GameKind.MATCHING:
        return sums, [s - alpha * v for s, v in zip(sums, values)]
    return sums, [alpha * v - s for s, v in zip(sums, values)]


def _worst(slack: Sequence) -> tuple[int, object]:
    """Arg-min of the slack over the nonempty proper coalitions, masks
    1..2^n-2: the first NaN, else the first minimum; (0, 0) when there is
    no such coalition (n <= 1)."""
    proper = range(1, len(slack) - 1)
    if not proper:
        return 0, 0
    first_nan = next((m for m in proper if slack[m] != slack[m]), 0)  # masks here start at 1
    mask = first_nan or min(proper, key=slack.__getitem__)
    return mask, slack[mask]


def core_check(
    inst: GameInstance,
    x: Allocation,
    alpha: float,
    tol: float = SLACK_TOL,
    grand_tol: float = GRAND_TOL,
    table: CharTable | None = None,
) -> CoreReport:
    """Check every proper coalition against its relaxed constraint.

    Welfare games require each coalition to receive at least alpha times
    its own value; cost games require it to pay at most alpha times its
    own cost. The grand coalition must match its value. The report names
    the worst nonempty proper coalition, or the empty one with slack 0
    when there is none (n <= 1).

    A slack passes down to -tol and the grand residual up to grand_tol,
    each plus the float-summation allowance n*eps*(sum |x_v| + |alpha| *
    max_S |value(S)|), eps the float epsilon: a sum of n floats is off by
    about that much, so the verdict does not change when every weight and
    share is scaled by one factor. The product |alpha| * max_S |value(S)|
    counts at most the largest float (a relaxed bound past it is infinite
    and rounds no further), and each term is multiplied by n*eps before
    the sum, so the allowance stays below 1e-12 times the largest float:
    an infinite or NaN slack or residual always fails. A float sum of the
    shares past the range is redone exactly, so only a true residual past it is inf.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    refuse_past(inst.n, CORE_CHECK_MAX_AGENTS, "core_check")
    if x.n != inst.n:
        raise ValueError(f"allocation indexes {x.n} agents but the instance has {inst.n}")
    welfare = inst.kind is GameKind.MATCHING
    if welfare and not 0 <= alpha <= 1:
        raise ValueError(f"welfare games need 0 <= alpha <= 1, got {alpha}")
    if not welfare and alpha < 1:
        raise ValueError(f"cost games need alpha >= 1, got {alpha}")
    if table is None:
        table = char_table(inst)
    sums, slack = _slacks(inst.kind, table.values, x.values, alpha)
    worst_mask, worst_slack = _worst(slack)  # the grand coalition is handled by the residual
    worst_slack = float(worst_slack)
    grand_residual = abs(float(sums[-1]) - table.grand)
    if not math.isfinite(sums[-1]) and math.isfinite(table.grand):  # only the float sum is past the range
        from fractions import Fraction  # the exact residual, read as inf past the float range
        exact = abs(sum(map(Fraction, x.values)) - Fraction(table.grand))
        grand_residual = float(exact) if exact <= sys.float_info.max else math.inf
    unit = inst.n * sys.float_info.epsilon
    scaled_max = min(abs(alpha) * max(abs(v) for v in table.values), sys.float_info.max)
    allowance = sum(unit * abs(v) for v in x.values) + unit * scaled_max
    passed = worst_slack >= -(tol + allowance) and grand_residual <= grand_tol + allowance
    return CoreReport(
        alpha=alpha,
        direction="welfare_lower" if welfare else "cost_upper",
        worst_subset=agents_of(worst_mask),
        worst_slack=worst_slack,
        grand_residual=grand_residual,
        passed=passed,
    )


def iter_core_rows(
    table: CharTable, x: Allocation, alpha: float
) -> Iterator[tuple[tuple[int, ...], float, float, float]]:
    """(subset, coalition value, allocated sum, slack) for every coalition
    but the grand one, the empty coalition first."""
    sums, slack = _slacks(table.game.kind, table.values, x.values, alpha)
    for mask in range(len(sums) - 1):
        yield agents_of(mask), table.values[mask], float(sums[mask]), float(slack[mask])


def exact_core_solve(inst: GameInstance) -> Allocation | None:
    """Exact core point of the unrelaxed coalition system, or None.

    Solves the full 2^n constraint system in exact arithmetic by
    constraint generation: repeatedly finds a point for the active
    coalitions and adds the most violated remaining one. The active
    coalitions hold at the returned point, so when the least slack is
    negative its first arg-min is always a coalition not yet active.

    Every weight is a binary fraction, so one power of two ``scale``
    turns them all into ints, and the coalition values with them: the
    scaling is exact and monotone, so the subset DP and Kruskal's order
    do not change. The solver returns the point as int numerators over
    ``det``, so the slacks are ints over ``det * scale``.
    """
    n = inst.n
    refuse_past(n, EXACT_SOLVE_MAX_AGENTS, "exact_core_solve")
    ratios = [w.as_integer_ratio() for w in inst.weights]
    scale = max((d for _, d in ratios), default=1)  # a power of two: every denominator divides it
    nu = coalition_values(inst, [p * (scale // d) for p, d in ratios])
    rel = ">=" if inst.kind is GameKind.MATCHING else "<="
    active = [1 << v for v in range(n)]
    while True:
        constraints: list = [([1] * n, "==", nu[-1])]
        constraints += [([(mask >> v) & 1 for v in range(n)], rel, nu[mask]) for mask in active]
        found = solve_scaled(n, constraints)
        if found is None:
            return None
        point, det = found
        # alpha = det puts the values over the point's denominator
        worst_mask, worst_slack = _worst(_slacks(inst.kind, nu, point, det)[1])
        if worst_slack >= 0:
            # int true division rounds correctly, as float() of the Fraction would
            try:
                return Allocation.of([v / (det * scale) for v in point])
            except OverflowError:  # a coordinate past the float range
                raise ValueError("a result exceeds the float range") from None
        active.append(worst_mask)


@dataclass(frozen=True)
class ProbeRow:
    edge_id: int
    weight: float
    delta: float
    ratio: float


@dataclass(frozen=True)
class LipschitzReport:
    allocator: str
    rows: tuple[ProbeRow, ...]
    max_ratio: float
    claimed_bound: float
    passed: bool

    def to_dict(self) -> dict:
        """The report as JSON data: a ratio that is not finite is None, JSON null."""
        return {
            "allocator": self.allocator,
            "probes": [
                {"edge_id": r.edge_id, "w_e": r.weight, "delta": r.delta, "ratio": _none_if_not_finite(r.ratio)}
                for r in self.rows
            ],
            "max_ratio": _none_if_not_finite(self.max_ratio),
            "claimed_bound": self.claimed_bound,
            "pass": self.passed,
        }


def probe_deltas(w_e: float) -> list[float]:
    """Perturbation sizes for one edge: w_e * 10^-k, or plain 10^-k at weight
    zero. A size that underflows to 0, or that bumps the weight past the
    float range, is left out."""
    if w_e > 0:
        deltas = [w_e * 10.0 ** -k for k in PROBE_EXPONENTS]
        return [d for d in deltas if d > 0 and math.isfinite(w_e + d)]
    return [10.0 ** -k for k in PROBE_EXPONENTS]


def _probe_ratio(out: Sequence[float], base: Sequence[float], delta: float) -> float:
    """l1 change per unit of weight change. An l1 sum past the float range
    is taken on both vectors scaled by 2**-s, which keeps n terms of at
    most twice the largest float finite, and the ratio is scaled back."""
    try:
        return l1_distance(out, base) / delta
    except ValueError:
        shift = (2 * len(out)).bit_length()
        scaled = l1_distance([math.ldexp(x, -shift) for x in out], [math.ldexp(x, -shift) for x in base])
        return scaled / delta * 2.0**shift


Vectorizer = Callable[[GameInstance], Sequence[float]]


def lipschitz_scan(
    allocator: Vectorizer,
    inst: GameInstance,
    claimed_bound: float,
    name: str = "allocator",
    tol: float = SLACK_TOL,
) -> LipschitzReport:
    """One probe per (edge, delta): re-run the allocator on the bumped
    weights and record the l1 change per unit of weight change. An
    allocator's ValueError comes back as one naming the failing probe;
    any other exception propagates unchanged."""

    def run(target: GameInstance, where: str) -> Sequence[float]:
        try:
            return allocator(target)
        except ValueError as exc:
            raise ValueError(f"allocator {name!r} failed {where}: {exc}") from exc

    if not math.isfinite(claimed_bound):
        raise ValueError(f"claimed bound must be finite, got {claimed_bound}")
    base = run(inst, "on the unperturbed instance")
    rows = []
    for e in inst.edges:
        w_e = inst.weights[e.id]
        for delta in probe_deltas(w_e):
            bumped = inst.with_weights(perturb(inst.weights, e.id, delta))
            out = run(bumped, f"on edge {e.id} with delta {delta}")
            rows.append(ProbeRow(e.id, w_e, delta, _probe_ratio(out, base, delta)))
    max_ratio = max((r.ratio for r in rows), default=0.0)
    return LipschitzReport(
        allocator=name,
        rows=tuple(rows),
        max_ratio=max_ratio,
        claimed_bound=claimed_bound,
        passed=max_ratio <= claimed_bound + tol,
    )


def _exact_core(inst: GameInstance, _) -> Sequence[float]:
    point = exact_core_solve(inst)
    if point is None:
        raise ValueError("the core is empty")
    return point.values


# name -> (what it needs: None, "epsilon", or "a rounding base" for base; its payoff vector given that value)
_ALLOCATORS: dict[str, tuple[str | None, Callable[[GameInstance, float | None], Sequence[float]]]] = {
    "matching-core": ("epsilon", lambda inst, eps: matching_core_allocate(inst, inst.weights, eps).values),
    "mst-core": (None, lambda inst, _: mst_core_allocate(inst, inst.weights).values),
    "matching-raw": ("a rounding base", lambda inst, base: integrate_matching(inst, inst.weights, base).values),
    "mst-raw": (None, lambda inst, _: integrate_mst(inst, inst.weights).values),
    "shapley": (None, lambda inst, _: shapley_exact(inst).values),
    "exact-core": (None, _exact_core),
}

ALLOCATOR_NAMES = tuple(_ALLOCATORS)


def named_allocator(
    name: str, epsilon: float | None = None, base: float | None = None
) -> Vectorizer:
    """Resolve an allocator name to a callable returning a payoff vector."""
    if name not in _ALLOCATORS:
        raise ValueError(f"unknown allocator {name!r}")
    needs, payoff = _ALLOCATORS[name]
    given = epsilon if needs == "epsilon" else base
    if needs is not None and given is None:
        raise ValueError(f"{name} needs {needs}")
    return lambda inst: payoff(inst, given)
