"""Exact rational linear feasibility via a phase-one simplex.

A small dense tableau over fractions. Free variables are split into
positive and negative parts, each inequality gets one slack column, and
each row carries its right-hand side as its last entry; the phase-one
objective row (minus the column sums of the rows) carries minus the sum
of the artificials the same way. One artificial per row starts in the
basis. Artificial columns are never stored: they never re-enter, so
only their labels ``n_struct + r`` remain in the basis. Bland's rule
(lowest entering column, ties of the ratio test broken by the lowest
basis label) guarantees termination, and the returned point is exact.
Used by the coalition-constraint solver, whose uniqueness assertions
rule out floating-point feasibility checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Constraint = tuple[Sequence[Fraction], str, Fraction]  # coeffs, one of "<=", ">=", "==", rhs


def solve_feasible(n_vars: int, constraints: Sequence[Constraint]) -> list[Fraction] | None:
    """A point satisfying all constraints, or None if there is none."""
    n_struct = 2 * n_vars + sum(1 for c in constraints if c[1] != "==")
    zero = Fraction(0)
    rows: list[list[Fraction]] = []
    slack_at = 2 * n_vars
    for coeffs, rel, b in constraints:
        if rel not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {rel!r}")
        row = [zero] * (n_struct + 1)
        for j, a in enumerate(coeffs):
            if a:
                row[j] = Fraction(a)
                row[n_vars + j] = -row[j]
        if rel != "==":
            row[slack_at] = Fraction(1 if rel == "<=" else -1)
            slack_at += 1
        row[-1] = Fraction(b)
        rows.append([-a for a in row] if row[-1] < 0 else row)
    basis = [n_struct + r for r in range(len(rows))]
    obj = [-sum(col, zero) for col in zip(*rows)] if rows else [zero] * (n_struct + 1)

    while True:
        enter = next((j for j in range(n_struct) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for r, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        if leave < 0:
            # unbounded phase-one objective cannot happen; defensive
            raise ArithmeticError("phase-one simplex became unbounded")
        prow = rows[leave]
        piv = prow[enter]
        nonzero = [j for j, a in enumerate(prow) if a]
        for j in nonzero:
            prow[j] /= piv
        for row in (*rows, obj):
            f = row[enter]
            if f and row is not prow:
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [zero] * n_vars
    for row, col in zip(rows, basis):
        if col < n_vars:
            x[col] += row[-1]
        elif col < 2 * n_vars:
            x[col - n_vars] -= row[-1]
    return x
