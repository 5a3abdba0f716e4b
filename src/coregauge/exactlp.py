"""Exact rational linear feasibility via a phase-one simplex on integers.

A small dense tableau. Free variables are split into positive and
negative parts, each inequality gets one slack column, and each row
carries its right-hand side as its last entry; the phase-one objective
row (minus the column sums of the rows) carries minus the sum of the
artificials the same way. One artificial per row starts in the basis.
Artificial columns are never stored: they never re-enter, so only their
labels ``n_struct + r`` remain in the basis. Bland's rule (lowest
entering column, ties of the ratio test broken by the lowest basis
label) guarantees termination, and the returned point is exact.

The tableau holds integers only. ``solve_feasible`` multiplies the whole
system by the least common multiple of its denominators, one factor for
every row: a factor per row would change the column sums of the
phase-one objective and hence the pivots. ``solve_scaled`` then pivots
fraction-free (Bareiss 1968; Edmonds 1967): the stored tableau is the
rational one times ``det``, the determinant of the current basis, and a
pivot on entry ``piv`` of row ``prow`` keeps ``prow`` and replaces every
other row by ``(piv * row - row[enter] * prow) // det``, a division
that is always exact, before ``det`` becomes ``piv``. Every pivot is
positive, so every sign test of the rational tableau carries over, and
the ratio test compares cross products. The pivots, and so the point,
are those of the same simplex run on Fractions.

Used by the coalition-constraint solver, whose uniqueness assertions
rule out floating-point feasibility checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Constraint = tuple[Sequence[Fraction], str, Fraction]  # coeffs, one of "<=", ">=", "==", rhs
IntConstraint = tuple[Sequence[int], str, int]


def solve_feasible(n_vars: int, constraints: Sequence[Constraint]) -> list[Fraction] | None:
    """A point satisfying all constraints, or None if there is none."""
    system = [([Fraction(a) for a in coeffs], rel, Fraction(b)) for coeffs, rel, b in constraints]
    scale = math.lcm(*(x.denominator for coeffs, _, b in system for x in (*coeffs, b)))
    scaled = [([int(a * scale) for a in coeffs], rel, int(b * scale)) for coeffs, rel, b in system]
    found = solve_scaled(n_vars, scaled)
    if found is None:
        return None
    numerators, det = found
    return [Fraction(v, det) for v in numerators]


def solve_scaled(n_vars: int, constraints: Sequence[IntConstraint]) -> tuple[list[int], int] | None:
    """``solve_feasible`` on integer coefficients and right-hand sides:
    the point as integer numerators over one positive common denominator,
    ``(numerators, det)``, or None if there is none."""
    n_struct = 2 * n_vars + sum(1 for c in constraints if c[1] != "==")
    rows: list[list[int]] = []
    slack_at = 2 * n_vars
    for coeffs, rel, b in constraints:
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        row = [0] * (n_struct + 1)
        for j, a in enumerate(coeffs):
            row[j] = a
            row[n_vars + j] = -a
        if rel != "==":
            row[slack_at] = 1 if rel == "<=" else -1
            slack_at += 1
        row[-1] = b
        rows.append([-a for a in row] if b < 0 else row)
    basis = [n_struct + r for r in range(len(rows))]
    obj = [-sum(col) for col in zip(*rows)] if rows else [0] * (n_struct + 1)
    det = 1

    while True:
        enter = next((j for j in range(n_struct) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave, best_rhs, best_a = -1, 0, 1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                # rhs / a < best_rhs / best_a, both over the common denominator det
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if leave < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, best_rhs, best_a = r, row[-1], a
        if leave < 0:
            # unbounded phase-one objective cannot happen; defensive
            raise ArithmeticError("phase-one simplex became unbounded")
        prow = rows[leave]
        rows = [prow if r == leave else _eliminate(row, prow, enter, det) for r, row in enumerate(rows)]
        obj = _eliminate(obj, prow, enter, det)
        basis[leave] = enter
        det = prow[enter]

    if obj[-1] != 0:
        return None
    x = [0] * n_vars
    for row, col in zip(rows, basis):
        if col < n_vars:
            x[col] += row[-1]
        elif col < 2 * n_vars:
            x[col - n_vars] -= row[-1]
    return x, det


def _eliminate(row: list[int], prow: list[int], enter: int, det: int) -> list[int]:
    """``row`` after the pivot on ``prow[enter]``, over the new denominator
    ``prow[enter]``; the division by the old one, ``det``, is exact."""
    piv, f = prow[enter], row[enter]
    if f:
        return [(piv * a - f * p) // det for a, p in zip(row, prow)]
    return row if piv == det else [piv * a // det for a in row]
