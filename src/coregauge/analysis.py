"""Verification engines: coalition-enumeration core checks, exact core
witnesses for small instances, and empirical sensitivity probing.

Reports are plain data; nothing here asserts. The test suite and the
CLI decide what a failing report means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .games import Allocation, GameInstance, GameKind, perturb
from .matching import integrate_matching, matching_core_allocate
from .mst import integrate_mst, mst_core_allocate
from .oracles import CharTable, agents_of, char_table, coalition_values
from .shapley import shapley_exact
from .exactlp import solve_feasible

CORE_CHECK_MAX_AGENTS = 16
EXACT_SOLVE_MAX_AGENTS = 12

SLACK_TOL = 1e-6
GRAND_TOL = 1e-9
PROBE_EXPONENTS = (0, 1, 2, 3)


class CoreDirection(Enum):
    WELFARE_LOWER = "welfare_lower"
    COST_UPPER = "cost_upper"


@dataclass(frozen=True)
class CoreReport:
    alpha: float
    direction: CoreDirection
    worst_subset: tuple[int, ...]
    worst_slack: float
    grand_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "direction": self.direction.value,
            "worst_subset": list(self.worst_subset),
            "worst_slack": self.worst_slack,
            "grand_residual": self.grand_residual,
            "pass": self.passed,
        }


def _subset_sums(values: Sequence) -> np.ndarray:
    """sums[mask] = sum of values over the agents in mask, for all masks;
    Fractions stay exact in an object array."""
    sums = np.zeros(1, dtype=np.asarray(values).dtype)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def _slacks(
    kind: GameKind, values: Sequence, allocated: Sequence, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Allocated sums and relaxed-constraint slacks of every coalition, by
    mask; Fraction values and allocations with an int alpha stay exact."""
    with np.errstate(over="ignore"):  # a sum or alpha * value beyond the float range is infinite
        sums = _subset_sums(allocated)
        if kind is GameKind.MATCHING:
            return sums, sums - alpha * np.asarray(values)
        return sums, alpha * np.asarray(values) - sums


def _worst(slack: np.ndarray) -> tuple[int, object]:
    """First arg-min of the slack over the nonempty proper coalitions,
    masks 1..2^n-2, or (0, 0) when there is none (n <= 1)."""
    if len(slack) <= 2:
        return 0, 0
    mask = 1 + int(np.argmin(slack[1:-1]))
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
    own cost. The grand coalition must match its value up to grand_tol.
    The report names the worst nonempty proper coalition, or the empty
    one with slack 0 when there is none (n <= 1).
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if inst.n > CORE_CHECK_MAX_AGENTS:
        raise ValueError(f"core_check is limited to {CORE_CHECK_MAX_AGENTS} agents, got {inst.n}")
    if x.n != inst.n:
        raise ValueError(f"allocation indexes {x.n} agents but the instance has {inst.n}")
    welfare = inst.kind is GameKind.MATCHING
    if welfare and alpha > 1:
        raise ValueError(f"welfare games need alpha <= 1, got {alpha}")
    if not welfare and alpha < 1:
        raise ValueError(f"cost games need alpha >= 1, got {alpha}")
    if table is None:
        table = char_table(inst)
    sums, slack = _slacks(inst.kind, table.values, x.values, alpha)
    worst_mask, worst_slack = _worst(slack)  # the grand coalition is handled by the residual
    worst_slack = float(worst_slack)
    grand_residual = abs(float(sums[-1]) - table.grand)
    passed = worst_slack >= -tol and grand_residual <= grand_tol
    return CoreReport(
        alpha=alpha,
        direction=CoreDirection.WELFARE_LOWER if welfare else CoreDirection.COST_UPPER,
        worst_subset=agents_of(worst_mask),
        worst_slack=worst_slack,
        grand_residual=grand_residual,
        passed=passed,
    )


def iter_core_rows(
    table: CharTable, x: Allocation, alpha: float
) -> Iterator[tuple[tuple[int, ...], float, float, float]]:
    """(subset, coalition value, allocated sum, slack) for every proper coalition."""
    sums, slack = _slacks(table.game.kind, table.values, x.values, alpha)
    for mask in range(len(sums) - 1):
        yield agents_of(mask), float(table.values[mask]), float(sums[mask]), float(slack[mask])


def exact_core_solve(inst: GameInstance) -> Allocation | None:
    """Exact core point of the unrelaxed coalition system, or None.

    Solves the full 2^n constraint system in rational arithmetic by
    constraint generation: repeatedly finds a point for the active
    coalitions and adds the most violated remaining one. The active
    coalitions hold at the returned point, so when the least slack is
    negative its first arg-min is always a coalition not yet active.
    """
    n = inst.n
    if n > EXACT_SOLVE_MAX_AGENTS:
        raise ValueError(f"exact_core_solve is limited to {EXACT_SOLVE_MAX_AGENTS} agents, got {n}")
    nu = coalition_values(inst, [Fraction(w) for w in inst.weights])
    rel = ">=" if inst.kind is GameKind.MATCHING else "<="
    active = [1 << v for v in range(n)]
    while True:
        constraints: list = [([1] * n, "==", nu[-1])]
        constraints += [([(mask >> v) & 1 for v in range(n)], rel, nu[mask]) for mask in active]
        point = solve_feasible(n, constraints)
        if point is None:
            return None
        # alpha is the int 1: a float alpha would turn the Fractions into floats
        worst_mask, worst_slack = _worst(_slacks(inst.kind, nu, point, 1)[1])
        if worst_slack >= 0:
            return Allocation.of(float(v) for v in point)
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
        return {
            "allocator": self.allocator,
            "probes": [
                {"edge_id": r.edge_id, "w_e": r.weight, "delta": r.delta, "ratio": r.ratio}
                for r in self.rows
            ],
            "max_ratio": self.max_ratio,
            "claimed_bound": self.claimed_bound,
            "pass": self.passed,
        }


def probe_deltas(w_e: float) -> list[float]:
    """Perturbation sizes for one edge: w_e * 10^-k, or plain 10^-k at weight zero."""
    if w_e > 0:
        return [w_e * 10.0 ** -k for k in PROBE_EXPONENTS]
    return [10.0 ** -k for k in PROBE_EXPONENTS]


Vectorizer = Callable[[GameInstance], Sequence[float]]


def lipschitz_scan(
    allocator: Vectorizer,
    inst: GameInstance,
    claimed_bound: float,
    name: str = "allocator",
    tol: float = SLACK_TOL,
) -> LipschitzReport:
    """One probe per (edge, delta): re-run the allocator on the bumped
    weights and record the l1 change per unit of weight change."""

    def run(target: GameInstance, where: str) -> np.ndarray:
        try:
            return np.asarray(allocator(target), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"allocator {name!r} failed {where}: {exc}") from exc

    if not math.isfinite(claimed_bound):
        raise ValueError(f"claimed bound must be finite, got {claimed_bound}")
    base = run(inst, "on the unperturbed instance")
    rows = []
    for e in inst.edges:
        w_e = inst.weights[e.id]
        for delta in probe_deltas(w_e):
            bumped = inst.with_weights(perturb(inst.weights, e.id, delta))
            out = run(bumped, f"on edge {e.id} with delta {delta}")
            rows.append(ProbeRow(e.id, w_e, delta, float(np.abs(out - base).sum() / delta)))
    max_ratio = max((r.ratio for r in rows), default=0.0)
    return LipschitzReport(
        allocator=name,
        rows=tuple(rows),
        max_ratio=max_ratio,
        claimed_bound=claimed_bound,
        passed=max_ratio <= claimed_bound + tol,
    )


def named_allocator(
    name: str, epsilon: float | None = None, base: float | None = None
) -> Vectorizer:
    """Resolve an allocator name to a callable returning a payoff vector."""
    if name == "matching-core":
        if epsilon is None:
            raise ValueError("matching-core needs epsilon")
        eps = epsilon
        return lambda inst: matching_core_allocate(inst, inst.weights, eps).values
    if name == "mst-core":
        return lambda inst: mst_core_allocate(inst, inst.weights).values
    if name == "matching-raw":
        if base is None:
            raise ValueError("matching-raw needs a rounding base")
        alpha = base
        return lambda inst: integrate_matching(inst, inst.weights, alpha).values
    if name == "mst-raw":
        return lambda inst: integrate_mst(inst, inst.weights).values
    if name == "shapley":
        return lambda inst: shapley_exact(inst).values
    if name == "exact-core":

        def solve(inst: GameInstance) -> Sequence[float]:
            point = exact_core_solve(inst)
            if point is None:
                raise ValueError("the core is empty")
            return point.values

        return solve
    raise ValueError(f"unknown allocator {name!r}")


ALLOCATOR_NAMES = (
    "matching-core",
    "mst-core",
    "matching-raw",
    "mst-raw",
    "shapley",
    "exact-core",
)
